//! Prints the span tree of one cross-node invocation (README capture).
//!
//! With `--chrome <path>` it additionally scrapes the trace through a
//! monitor object and writes it as Chrome-trace JSON (load the file in
//! Perfetto or `chrome://tracing`), validating the JSON before exit;
//! `--critpath <path>` writes the same trace's critical-path breakdown
//! as a text table; `--events <path>` writes the monitor's merged
//! flight-recorder stream as JSONL, and `--prom <path>` its Prometheus
//! text exposition:
//!
//! ```sh
//! cargo run --example span_tree_capture -- \
//!     --chrome trace.json --critpath critpath.txt \
//!     --events events.jsonl --prom metrics.prom
//! ```

use eden::apps::counter::CounterType;
use eden::apps::{MonitorClient, MonitorType};
use eden::kernel::Cluster;
use eden::obs::{render_trace, validate_json, SpanRecord};
use eden::wire::Value;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter().position(|a| a == name).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{name} needs a path"))
                .clone()
        })
    };
    let chrome_path = flag("--chrome");
    let critpath_path = flag("--critpath");
    let events_path = flag("--events");
    let prom_path = flag("--prom");

    let c = Cluster::builder()
        .nodes(2)
        .register(|| Box::new(CounterType))
        .register(|| Box::new(MonitorType))
        .build();
    let cap = c.node(0).create_object("counter", &[]).unwrap();
    c.node(1).invoke(cap, "add", &[Value::I64(5)]).unwrap();

    let root = c
        .node(1)
        .obs()
        .traces()
        .spans()
        .into_iter()
        .find(|s| s.name == "invoke" && s.parent_span == 0)
        .expect("root span");
    let spans: Vec<SpanRecord> = c
        .nodes()
        .iter()
        .flat_map(|n| n.obs().traces().spans())
        .filter(|s| s.trace_id == root.trace_id)
        .collect();
    print!("{}", render_trace(&spans, root.trace_id));

    let scrape = [&chrome_path, &critpath_path, &events_path, &prom_path];
    if scrape.iter().any(|p| p.is_some()) {
        let monitor = MonitorClient::for_cluster(&c).expect("create monitor");
        if let Some(path) = chrome_path {
            let json = monitor
                .chrome_trace(Some(root.trace_id))
                .expect("scrape trace");
            validate_json(&json).expect("exported trace is valid JSON");
            std::fs::write(&path, &json).expect("write chrome trace");
            eprintln!("wrote {} bytes of Chrome-trace JSON to {path}", json.len());
        }
        if let Some(path) = critpath_path {
            let cp = monitor
                .critical_path(root.trace_id)
                .expect("scrape critical path")
                .expect("the trace stitches into a report");
            std::fs::write(&path, cp.text_table()).expect("write critpath table");
            eprintln!(
                "wrote critical-path table ({:.1}% accounted) to {path}",
                cp.coverage() * 100.0
            );
        }
        if let Some(path) = events_path {
            let jsonl = monitor.events_jsonl().expect("scrape events");
            std::fs::write(&path, &jsonl).expect("write events");
            eprintln!("wrote {} flight events to {path}", jsonl.lines().count());
        }
        if let Some(path) = prom_path {
            let text = monitor.prometheus().expect("scrape metrics");
            std::fs::write(&path, &text).expect("write metrics");
            eprintln!("wrote {} bytes of Prometheus text to {path}", text.len());
        }
    }
    c.shutdown();
}
