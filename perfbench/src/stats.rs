//! Sample collection and the summary statistics the benchmark reports.

use std::collections::BTreeMap;

/// Why an operation did not produce a verified answer. Every kind counts
/// against `attempted` in the run's `failed` total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The call returned an error (`FcError`).
    Error,
    /// `submit_async` refused admission (`FcError::Overloaded`).
    Overloaded,
    /// The batch listed the query in `BatchResults::failures`.
    Listed,
    /// The answer differed from the host shadow.
    Wrong,
}

/// Per-layer counters read from the program's stats structs, outside
/// every timed bracket. Summed over requests, clients and episodes.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub batches: u64,
    pub serial_senses: u64,
    pub senses_saved: u64,
    pub shared_units: u64,
    pub deduped_queries: u64,
    pub dies_used: u64,
    pub busiest_die_us: f64,
    pub busiest_channel_us: f64,
    pub channel_bound: u64,
    pub merge_bound: u64,
    /// Controller merge wall time inside the devices (cross-die), µs,
    /// as the batches report it.
    pub crossdie_merge_us: f64,
    /// Merge wall time inside the executing calls (drain or cluster
    /// submit), µs: subtracted from their time to isolate chip emulation.
    pub exec_merge_us: f64,
    /// Cluster controller merge wall time (cross-shard), µs.
    pub cluster_merge_us: f64,
    pub shards_touched: u64,
    pub drains: u64,
    pub drained_batches: u64,
    pub overlap_saved_us: f64,
    pub overloaded: u64,
    pub jobs_executed: u64,
    pub jobs_deferred: u64,
    pub jobs_retired: u64,
}

impl Counters {
    pub fn add(&mut self, o: &Counters) {
        self.batches += o.batches;
        self.serial_senses += o.serial_senses;
        self.senses_saved += o.senses_saved;
        self.shared_units += o.shared_units;
        self.deduped_queries += o.deduped_queries;
        self.dies_used += o.dies_used;
        self.busiest_die_us += o.busiest_die_us;
        self.busiest_channel_us += o.busiest_channel_us;
        self.channel_bound += o.channel_bound;
        self.merge_bound += o.merge_bound;
        self.crossdie_merge_us += o.crossdie_merge_us;
        self.exec_merge_us += o.exec_merge_us;
        self.cluster_merge_us += o.cluster_merge_us;
        self.shards_touched += o.shards_touched;
        self.drains += o.drains;
        self.drained_batches += o.drained_batches;
        self.overlap_saved_us += o.overlap_saved_us;
        self.overloaded += o.overloaded;
        self.jobs_executed += o.jobs_executed;
        self.jobs_deferred += o.jobs_deferred;
        self.jobs_retired += o.jobs_retired;
    }
}

/// What one client (or a merge of clients) observed.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// Host latency of every request, µs; failed requests are pushed as
    /// `INFINITY` so they rank above every completed one.
    pub req_us: Hist,
    /// Host latency of every write, µs (`INFINITY` when it failed).
    pub write_us: Hist,
    /// Modeled critical path of every query request, µs.
    pub modeled_us: Atoms,
    /// Queries whose results came back (right or wrong).
    pub queries: u64,
    pub senses: u64,
    pub energy_uj: f64,
    pub attempted: u64,
    pub failures: BTreeMap<Failure, u64>,
    /// Failed operations by call and error kind.
    pub error_kinds: BTreeMap<String, u64>,
    pub counters: Counters,
}

impl Recorder {
    pub fn fail(&mut self, kind: Failure, n: u64) {
        *self.failures.entry(kind).or_insert(0) += n;
    }

    pub fn error(&mut self, what: &str, e: &dyn std::fmt::Display) {
        self.fail(Failure::Error, 1);
        *self.error_kinds.entry(format!("{what}: {}", error_kind(e))).or_insert(0) += 1;
    }

    /// Records an answer that differed from the host shadow.
    pub fn wrong(&mut self, what: &str) {
        self.fail(Failure::Wrong, 1);
        *self.error_kinds.entry(format!("{what}: wrong result")).or_insert(0) += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn wrong_results(&self) -> u64 {
        self.failures.get(&Failure::Wrong).copied().unwrap_or(0)
    }

    pub fn merge(&mut self, o: Recorder) {
        self.req_us.merge(&o.req_us);
        self.write_us.merge(&o.write_us);
        self.modeled_us.merge(&o.modeled_us);
        self.queries += o.queries;
        self.senses += o.senses;
        self.energy_uj += o.energy_uj;
        self.attempted += o.attempted;
        for (k, v) in o.failures {
            *self.failures.entry(k).or_insert(0) += v;
        }
        for (k, v) in o.error_kinds {
            *self.error_kinds.entry(k).or_insert(0) += v;
        }
        self.counters.add(&o.counters);
    }
}

/// The error message up to its first digit: groups "no free wordlines in
/// plane 3" and "... plane 5" under one kind.
fn error_kind(e: &dyn std::fmt::Display) -> String {
    let s = e.to_string();
    let cut = s.find(|c: char| c.is_ascii_digit()).unwrap_or(s.len());
    s[..cut].trim_end().to_string()
}

/// Nearest-rank percentile of `v` (sorted in place), for values a
/// [`Hist`] cannot hold: the traced run's span durations, where derived
/// ones such as `session.admit` are differences of two spans and can be
/// negative, and the windows' steal rates, which are often 0.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Log-bucketed host latency histogram: 256 buckets per doubling of
/// nanoseconds (0.27% resolution). Its size does not grow with the run,
/// so the harness's own memory stays out of `peak_rss_mib`. Failed
/// samples (`INFINITY`) are counted apart and rank above every bucket.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    failed: u64,
}

impl Hist {
    const PER_OCTAVE: f64 = 256.0;

    pub fn push(&mut self, us: f64) {
        if !us.is_finite() {
            self.failed += 1;
            return;
        }
        let i = ((us * 1e3).max(1.0).log2() * Self::PER_OCTAVE) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    pub fn len(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.failed
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn merge(&mut self, o: &Hist) {
        if o.counts.len() > self.counts.len() {
            self.counts.resize(o.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.failed += o.failed;
    }

    /// Nearest-rank percentile, µs (the bucket's geometric middle). A
    /// percentile that lands on a failed sample reports `censor`: the
    /// failed request never completed within the measured window.
    pub fn percentile(&self, p: f64, censor: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((i as f64 + 0.5) / Self::PER_OCTAVE).exp2() / 1e3;
            }
        }
        censor
    }
}

/// Modeled-clock samples: each distinct value with its count (modeled
/// latencies take few distinct values), their sum, and an
/// order-sensitive digest of the sequence for the replay check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Atoms {
    /// `f64::to_bits` of a non-negative value (same order as the value).
    counts: BTreeMap<u64, u64>,
    pub sum: f64,
    pub digest: u64,
}

impl Atoms {
    pub fn push(&mut self, x: f64) {
        *self.counts.entry(x.to_bits()).or_insert(0) += 1;
        self.sum += x;
        self.digest = (self.digest ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub fn len(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Merges another client's samples (the digest then only identifies
    /// single-client sequences).
    pub fn merge(&mut self, o: &Atoms) {
        for (&k, &v) in &o.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
        self.sum += o.sum;
        self.digest ^= o.digest;
    }

    /// Mid-quantile (Parzen's mid-distribution quantile): the mid-CDF
    /// `F(x) - P(x)/2` is interpolated linearly between the distinct
    /// values. A nearest-rank percentile of a few discrete values would
    /// jump between them; the mid-quantile moves continuously with the
    /// share of requests at each value.
    pub fn mid_quantile(&self, p: f64) -> f64 {
        let n = self.len() as f64;
        let mut points = Vec::with_capacity(self.counts.len());
        let mut below = 0.0;
        for (&bits, &c) in &self.counts {
            points.push((f64::from_bits(bits), (below + c as f64 / 2.0) / n));
            below += c as f64;
        }
        let Some(&(first, f_first)) = points.first() else { return 0.0 };
        if p <= f_first {
            return first;
        }
        for w in points.windows(2) {
            let ((x0, f0), (x1, f1)) = (w[0], w[1]);
            if p <= f1 {
                return x0 + (p - f0) / (f1 - f0) * (x1 - x0);
            }
        }
        points[points.len() - 1].0
    }
}

/// One window's host-clock summary.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub qps: f64,
    pub p50: f64,
    pub p99: f64,
    /// CPU time the hypervisor stole from the machine during the window,
    /// clock ticks per second of the window.
    pub steal_rate: f64,
}

/// Host-clock percentiles per *window*: consecutive episodes pooled until
/// the window holds at least `min` samples. The run reports the median
/// over windows, so a burst of noise from the machine moves one window,
/// not the result. Only the quarter of windows during which the
/// hypervisor stole the least CPU time count: on a shared VM, every stolen
/// tick lowers throughput and lengthens the latency tail.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    min: u64,
    cur: Hist,
    cur_queries: u64,
    cur_wall_s: f64,
    cur_steal: u64,
    pub windows: Vec<Window>,
    pub samples: u64,
}

impl Windows {
    pub fn new(min: u64) -> Self {
        Self { min, ..Self::default() }
    }

    /// Adds one episode's samples, its wall time and the clock ticks
    /// stolen while they were taken.
    pub fn add(&mut self, h: &Hist, queries: u64, wall_s: f64, steal: u64) {
        self.cur.merge(h);
        self.cur_queries += queries;
        self.cur_wall_s += wall_s;
        self.cur_steal += steal;
        self.samples += h.len();
        if self.cur.len() >= self.min {
            self.close();
        }
    }

    fn close(&mut self) {
        let censor = self.cur_wall_s * 1e6;
        self.windows.push(Window {
            qps: ratio(self.cur_queries as f64, self.cur_wall_s),
            p50: self.cur.percentile(0.50, censor),
            p99: self.cur.percentile(0.99, censor),
            steal_rate: ratio(self.cur_steal as f64, self.cur_wall_s),
        });
        self.cur = Hist::default();
        self.cur_queries = 0;
        self.cur_wall_s = 0.0;
        self.cur_steal = 0;
    }

    /// Closes a partial last window only when no window completed.
    pub fn finish(&mut self) {
        if self.windows.is_empty() && !self.cur.is_empty() {
            self.close();
        }
    }

    /// The windows whose steal rate is at most the first quartile's:
    /// every window without steal, and at least a quarter of them.
    pub fn least_stolen(&self) -> Vec<Window> {
        let cut =
            percentile(&mut self.windows.iter().map(|w| w.steal_rate).collect::<Vec<_>>(), 0.25);
        self.windows.iter().filter(|w| w.steal_rate <= cut).copied().collect()
    }

    /// Median of `f` over the least-stolen windows.
    pub fn median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&mut self.least_stolen().iter().map(f).collect::<Vec<_>>())
    }
}

/// CPU time the hypervisor has stolen from this machine so far, in clock
/// ticks (the `steal` column of `/proc/stat`), or 0 where it is not
/// reported.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Ratio that reads 0 instead of NaN on an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The process's peak resident set, MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![3.0, 1.0, -4.0, 2.0];
        assert_eq!(percentile(&mut v, 0.5), 1.0);
        assert_eq!(percentile(&mut v, 0.01), -4.0);
        assert_eq!(percentile(&mut v, 1.0), 3.0);
    }

    #[test]
    fn mid_quantile_interpolates_between_atoms() {
        // 25% at 10, 75% at 20: mid-CDF points (10, .125), (20, .625).
        let mut a = Atoms::default();
        for x in [10.0, 20.0, 20.0, 20.0] {
            a.push(x);
        }
        assert_eq!(a.mid_quantile(0.5), 17.5);
        assert_eq!(a.mid_quantile(0.99), 20.0);
        assert_eq!(a.mid_quantile(0.1), 10.0);
    }

    #[test]
    fn windows_set_aside_the_most_stolen() {
        let mut w = Windows::new(1);
        let runs = [
            (10.0, 0),
            (12.0, 0),
            (30.0, 1),
            (40.0, 2),
            (50.0, 4),
            (60.0, 5),
            (11.0, 0),
            (70.0, 6),
        ];
        for (us, steal) in runs {
            let mut h = Hist::default();
            h.push(us);
            w.add(&h, 1, 1.0, steal);
        }
        assert_eq!(w.least_stolen().len(), 3);
        assert!((w.median(|x| x.p50) / 11.0 - 1.0).abs() < 0.003);
    }

    #[test]
    fn histogram_percentiles_within_resolution() {
        let mut h = Hist::default();
        for i in 1..=1000 {
            h.push(f64::from(i));
        }
        h.push(f64::INFINITY);
        let p50 = h.percentile(0.5, -1.0);
        assert!((p50 / 501.0 - 1.0).abs() < 0.003, "{p50}");
        assert_eq!(h.percentile(1.0, -1.0), -1.0);
    }
}
