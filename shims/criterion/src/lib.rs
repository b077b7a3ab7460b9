//! Offline stand-in for `criterion`.
//!
//! Provides the bench-harness surface the workspace's `[[bench]]` targets
//! use — `Criterion`, benchmark groups, `black_box`, the `criterion_group!`
//! / `criterion_main!` macros — with a simple median-of-samples timer
//! instead of criterion's full statistical machinery. Good enough to rank
//! kernels and catch order-of-magnitude regressions; not a substitute for
//! real criterion when it is available.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched work.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    /// Time spent warming up before sampling.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up_time = d;
        self
    }

    /// Total time budget for the samples of one benchmark.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement_time = d;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("benchmark group: {name}");
        BenchmarkGroup {
            criterion: self,
            group: name.to_string(),
            sample_size: None,
            throughput: None,
        }
    }
}

/// Identifier for one parameterized benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    #[must_use]
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId { label: format!("{}/{parameter}", function.into()) }
    }

    /// Parameter-only form.
    #[must_use]
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId { label: parameter.to_string() }
    }
}

/// How much work one iteration does, so a result can be shown per unit.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Each iteration processes this many elements.
    Elements(u64),
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    group: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Work per iteration of the benchmarks that follow: their results
    /// are also reported per element.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark closure.
    pub fn bench_function(&mut self, id: impl Into<String>, f: impl FnMut(&mut Bencher)) {
        let label = id.into();
        self.run(&label, f);
    }

    /// Run one benchmark closure with an input parameter.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        let label = id.label;
        self.run(&label, |b| f(b, input));
    }

    /// Finish the group (reporting is incremental, so this is a no-op).
    pub fn finish(self) {}

    fn run(&mut self, label: &str, mut f: impl FnMut(&mut Bencher)) {
        let samples = self.sample_size.unwrap_or(self.criterion.sample_size);
        let mut b = Bencher { per_iter: Vec::new() };
        // Warm-up: run until the warm-up budget is spent.
        let warm_until = Instant::now() + self.criterion.warm_up_time;
        while Instant::now() < warm_until {
            f(&mut b);
        }
        b.per_iter.clear();
        let budget = self.criterion.measurement_time;
        let t0 = Instant::now();
        for _ in 0..samples {
            f(&mut b);
            if t0.elapsed() > budget {
                break;
            }
        }
        b.per_iter.sort_unstable();
        let med = b.per_iter.get(b.per_iter.len() / 2).copied().unwrap_or_default();
        let per_elem = self.throughput.map_or(String::new(), |Throughput::Elements(n)| {
            format!(" ({:.2} ns/element)", med.as_secs_f64() * 1e9 / n as f64)
        });
        println!(
            "  {}/{label}: median {med:?}{per_elem} over {} samples",
            self.group,
            b.per_iter.len()
        );
    }
}

/// Timer handle passed to benchmark closures.
pub struct Bencher {
    per_iter: Vec<Duration>,
}

impl Bencher {
    /// Time one sample of `f`, batching iterations to keep the timer
    /// overhead negligible for fast bodies.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Calibrate an iteration count targeting ~1 ms per sample.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 1_000_000);
        let t1 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.per_iter.push(t1.elapsed() / u32::try_from(iters).expect("clamped to 1e6"));
    }
}

/// Declare a named group of benchmark functions with shared configuration.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
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

/// Entry point running every declared group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        g.throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::new("param", 7), &7u32, |b, &n| {
            b.iter(|| n * 2);
        });
        g.finish();
    }

    criterion_group! {
        name = benches;
        config = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(10));
        targets = trivial
    }

    #[test]
    fn harness_runs() {
        benches();
    }
}
