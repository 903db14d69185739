//! `eden-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then the result line last. The span table
//! of a traced run and the failure breakdown go to standard error.

use std::process::ExitCode;

use eden_perfbench::decor::Inject;
use eden_perfbench::workload::{self, RunConfig, Workload};
use eden_perfbench::{procfs, report, scratch_dir, SETUPS};

const USAGE: &str = "usage: eden-perfbench --workload <tcp_seq|tcp_pipelined|mesh_mixed> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(mut args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value '{value}': {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        setups: SETUPS,
        inject: Inject::default(),
        scratch: scratch_dir(workload.name()),
    })
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = procfs::host();
    let outcome = workload::run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.scratch);

    let failed: u64 = outcome.tally.failures.values().sum();
    let run = [
        ("workload", cfg.workload.name().to_string()),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", u8::from(cfg.trace).to_string()),
        ("lat_samples", outcome.completed().to_string()),
        ("window_s", format!("{:.3}", outcome.window_s)),
        (
            "setup_s",
            outcome
                .setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "wrong_answer",
            outcome.tally.wrong.clone().unwrap_or_default(),
        ),
    ];
    let failures = outcome
        .tally
        .failures
        .iter()
        .map(|(k, n)| (k.as_str(), n.to_string()));
    let census = outcome.groups.iter().map(|(g, (threads, cpu_ns))| {
        (
            *g,
            format!("{threads} threads, {:.1} ms CPU", *cpu_ns as f64 / 1e6),
        )
    });
    println!(
        "{{\"provenance\": {{\"run\": {}, \"host\": {}, \"params\": {}, \"failures\": {}, \"census\": {}}}}}",
        report::json_object(run),
        report::json_object(host),
        report::json_object(outcome.params.iter().map(|(k, v)| (*k, v.clone()))),
        report::json_object(failures),
        report::json_object(census),
    );
    if failed > 0 {
        eprintln!("failures by status: {:?}", outcome.tally.failures);
    }
    if let Some(wrong) = &outcome.tally.wrong {
        eprintln!("wrong answer, run aborted: {wrong}");
    }
    let metrics = if cfg.trace {
        eprint!("{}", report::span_table(&outcome));
        report::per_layer(&outcome, cfg.workload)
    } else {
        report::end_to_end(&outcome)
    };
    println!(
        "{}",
        report::result_line(
            outcome.tally.wrong.is_none(),
            outcome.tally.attempted,
            failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
