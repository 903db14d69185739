//! In-tree shim for the `criterion` benchmark harness.
//!
//! Implements the API subset the workspace's benches use — groups,
//! `bench_function` / `bench_with_input`, throughput annotation, the
//! `criterion_group!` / `criterion_main!` macros — with a simple
//! calibrated-batch timer instead of criterion's statistical machinery.
//! Each benchmark prints its median and mean per-iteration time.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box`, criterion-style.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Just the parameter, for single-function groups.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The per-iteration timer handed to benchmark closures.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Bencher {
    /// Times `routine`, collecting `sample_size` samples of calibrated
    /// batches within roughly `measurement_time`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up + calibration: how many iterations fit in one sample?
        let warm_deadline = Instant::now() + self.warm_up_time;
        let mut calib_iters = 0u64;
        let calib_start = Instant::now();
        loop {
            black_box(routine());
            calib_iters += 1;
            if Instant::now() >= warm_deadline {
                break;
            }
        }
        let per_iter = calib_start.elapsed().as_secs_f64() / calib_iters as f64;
        let per_sample = self.measurement_time.as_secs_f64() / self.sample_size as f64;
        let batch = ((per_sample / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000_000);

        let deadline = Instant::now() + self.measurement_time;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            self.samples
                .push(start.elapsed().as_secs_f64() / batch as f64);
            if Instant::now() >= deadline {
                break;
            }
        }
    }
}

#[derive(Clone, Copy)]
struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
        }
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    settings: Settings,
}

impl Criterion {
    /// Sets the target number of samples.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.settings.sample_size = n.max(2);
        self
    }

    /// Sets the measurement budget per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.settings.measurement_time = d;
        self
    }

    /// Sets the warm-up budget per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Parses CLI options in real criterion; a no-op here.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        run_one(&self.settings, None, &id.into(), None, f);
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            settings: self.settings,
            throughput: None,
            _marker: std::marker::PhantomData,
        }
    }
}

/// A group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    settings: Settings,
    throughput: Option<Throughput>,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(2);
        self
    }

    /// Sets the measurement budget for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Sets the warm-up budget for this group.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        run_one(
            &self.settings,
            Some(&self.name),
            &id.into(),
            self.throughput,
            f,
        );
        self
    }

    /// Runs one benchmark with an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(
            &self.settings,
            Some(&self.name),
            &id.into(),
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    settings: &Settings,
    group: Option<&str>,
    id: &BenchmarkId,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let label = match group {
        Some(g) => format!("{g}/{}", id.id),
        None => id.id.clone(),
    };
    let mut b = Bencher {
        samples: Vec::with_capacity(settings.sample_size),
        sample_size: settings.sample_size,
        measurement_time: settings.measurement_time,
        warm_up_time: settings.warm_up_time,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<40} (no samples)");
        return;
    }
    b.samples.sort_by(|a, b| a.total_cmp(b));
    let median = b.samples[b.samples.len() / 2];
    let mean = b.samples.iter().sum::<f64>() / b.samples.len() as f64;
    let rate = match throughput {
        Some(Throughput::Bytes(n)) => {
            format!("  {:>10.1} MiB/s", n as f64 / median / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(n)) => format!("  {:>10.0} elem/s", n as f64 / median),
        None => String::new(),
    };
    println!(
        "{label:<40} time: [median {} mean {}]{rate}",
        fmt_time(median),
        fmt_time(mean)
    );
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.2} s")
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default()
            .sample_size(5)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(20));
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Bytes(64));
        group.bench_with_input(BenchmarkId::from_parameter(1), &1u64, |b, &x| {
            b.iter(|| black_box(x) + 1)
        });
        group.finish();
        c.bench_function("plain", |b| b.iter(|| 2 + 2));
    }
}
