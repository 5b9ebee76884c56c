//! Minimal offline stand-in for the `criterion` benchmark harness.
//!
//! This vendored stub exists because the build environment has no network
//! access, so the real crates.io `criterion` cannot be fetched. It keeps the
//! same API surface the workspace benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `Throughput`, `BenchmarkId`,
//! `criterion_group!`/`criterion_main!`) so the bench sources compile and run
//! unmodified, but it does **not** attempt criterion's statistical analysis:
//! each benchmark is a short fixed-iteration wall-clock measurement printed
//! to stdout. Treat the numbers as smoke-test output, not publishable
//! measurements.

use std::fmt::Display;
use std::time::Instant;

/// Per-iteration work driver handed to benchmark closures.
pub struct Bencher {
    iters: u64,
    /// Mean wall-clock nanoseconds per iteration, filled in by [`Bencher::iter`].
    mean_nanos: f64,
}

impl Bencher {
    /// Run `routine` `self.iters` times and record the mean wall-clock time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        #[expect(
            clippy::disallowed_methods,
            reason = "a benchmark harness measures wall time; no replay reads it"
        )]
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        let total = start.elapsed();
        self.mean_nanos = total.as_secs_f64() * 1e9 / self.iters.max(1) as f64;
    }
}

/// Unit a benchmark's throughput is reported in.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Logical items processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for one parameterised benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier, like upstream criterion.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> Self {
        BenchmarkId {
            id: name.to_owned(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> Self {
        BenchmarkId { id: name }
    }
}

/// Top-level harness object passed to every `criterion_group!` target.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            throughput: None,
            sample_size: 10,
        }
    }
}

/// A named set of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'c> {
    _parent: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Record the work-per-iteration unit used in the report line.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Upstream criterion uses this as the statistical sample count; the stub
    /// reuses it (capped) as the iteration count of its single measurement.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Measure `routine` and print one report line.
    pub fn bench_function<R>(&mut self, id: impl Into<BenchmarkId>, mut routine: R) -> &mut Self
    where
        R: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            iters: self.sample_size.clamp(1, 30) as u64,
            mean_nanos: 0.0,
        };
        routine(&mut bencher);
        self.report(&id.id, bencher.mean_nanos);
        self
    }

    /// Measure `routine` with an input value and print one report line.
    pub fn bench_with_input<I, R>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: R,
    ) -> &mut Self
    where
        R: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            iters: self.sample_size.clamp(1, 30) as u64,
            mean_nanos: 0.0,
        };
        routine(&mut bencher, input);
        self.report(&id.id, bencher.mean_nanos);
        self
    }

    /// Close the group. (Upstream finalises reports here; the stub prints
    /// eagerly, so this only marks the boundary in the output.)
    pub fn finish(&mut self) {
        println!("# group {} done", self.name);
    }

    fn report(&self, id: &str, mean_nanos: f64) {
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if mean_nanos > 0.0 => {
                format!("  {:.3} Melem/s", n as f64 / mean_nanos * 1e3)
            }
            Some(Throughput::Bytes(n)) if mean_nanos > 0.0 => {
                format!(
                    "  {:.3} MiB/s",
                    n as f64 / mean_nanos * 1e9 / (1024.0 * 1024.0)
                )
            }
            _ => String::new(),
        };
        println!("{}/{}  {:.1} ns/iter{}", self.name, id, mean_nanos, rate);
    }
}

/// Declare a benchmark group: `criterion_group!(benches, bench_fn, ...)`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declare the bench binary's `main`: `criterion_main!(benches)`.
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

    fn bench_square(c: &mut Criterion) {
        let mut group = c.benchmark_group("stub_smoke");
        group.sample_size(10);
        group.throughput(Throughput::Elements(1));
        group.bench_function("square", |b| b.iter(|| std::hint::black_box(7u64).pow(2)));
        group.bench_with_input(BenchmarkId::new("square_of", 9u64), &9u64, |b, &n| {
            b.iter(|| n * n);
        });
        group.finish();
    }

    criterion_group!(benches, bench_square);

    #[test]
    fn group_macro_compiles_and_runs() {
        benches();
    }

    #[test]
    fn benchmark_id_formats_like_upstream() {
        assert_eq!(BenchmarkId::new("scan", 128).id, "scan/128");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }
}
