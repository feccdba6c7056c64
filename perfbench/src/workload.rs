//! What every workload provides, and the closed-loop episode runner.
//!
//! A run is a sequence of *episodes*. Each episode sets up a fresh device
//! (construction, operand load, traffic generation — the `setup_s`
//! bracket), then runs every client's pre-drawn operation sequence to its
//! end, closed loop. Episodes repeat until the run's `--seconds` are
//! spent. Because an episode's work is fixed by its seed, the modeled
//! clock's numbers do not depend on how fast the host is.

use std::time::Instant;

use flash_cosmos::{CacheStats, DeviceHealth, FlashCosmosDevice};
use rand::Rng;

use crate::stats::Recorder;
use crate::trace::{Span, Tracer};

/// Client threads per episode (one process, closed loop each).
pub const CLIENTS: usize = 2;

/// `n` distinct elements of `pool`, in random order (a partial
/// Fisher–Yates shuffle of `pool`).
pub fn pick<T, R: Rng>(n: usize, pool: impl IntoIterator<Item = T>, rng: &mut R) -> Vec<T> {
    let mut pool: Vec<T> = pool.into_iter().collect();
    for k in 0..n {
        let j = rng.gen_range(k..pool.len());
        pool.swap(k, j);
    }
    pool.truncate(n);
    pool
}

/// One set-up episode: a device with its operands loaded and every
/// client's operation sequence drawn.
pub trait Episode: Sync {
    /// Runs client `client`'s sequence: each request is sent after the
    /// previous one returned. `req0` offsets this episode's request ids.
    fn run_client(&self, client: usize, rec: &mut Recorder, tr: &mut Tracer, req0: u64);

    /// Reads the device state the run reports once the clients are done.
    fn finish(&mut self) -> EpisodeEnd;
}

/// The static sizes of a workload, reported next to its metrics.
#[derive(Debug, Clone, Default)]
pub struct Sizes {
    pub page_bytes: usize,
    pub operands: usize,
    /// Distinct queries the traffic draws from.
    pub population: usize,
    /// Result-cache entries per device.
    pub cache_capacity: usize,
    /// Wordlines of the whole geometry (every device).
    pub wordlines: u64,
    /// Wordlines of the blocks already allocated once set-up finished.
    pub wordlines_used_at_setup: u64,
    pub wls_per_block: u64,
}

impl Sizes {
    pub fn of(dev: &mut FlashCosmosDevice, operands: usize, population: usize) -> Self {
        let cfg = dev.config().clone();
        let wls = cfg.wls_per_block as u64;
        Self {
            page_bytes: cfg.page_bytes,
            operands,
            population,
            cache_capacity: dev.session().cache_stats().capacity,
            wordlines: (cfg.total_planes() * cfg.blocks_per_plane) as u64 * wls,
            wordlines_used_at_setup: blocks_allocated(dev) * wls,
            wls_per_block: wls,
        }
    }

    /// Free wordlines when the clients start.
    pub fn free_wordlines(&self) -> u64 {
        self.wordlines - self.wordlines_used_at_setup
    }
}

pub struct Prepared {
    pub episode: Box<dyn Episode>,
    /// Host latency of each operand-load write, µs.
    pub load_write_us: crate::stats::Hist,
    pub sizes: Sizes,
    /// Reliability counters once set-up finished (summed over devices).
    pub health0: DeviceHealth,
}

/// Device state at the end of an episode, summed over its devices.
#[derive(Debug, Clone, Default)]
pub struct EpisodeEnd {
    pub blocks: u64,
    pub cache: CacheStats,
    pub health: DeviceHealth,
}

impl EpisodeEnd {
    /// Adds one device's state (raw SSD access: call it only when no
    /// client is running).
    pub fn add_device(&mut self, dev: &mut FlashCosmosDevice) {
        let c = dev.session().cache_stats();
        self.cache.hits += c.hits;
        self.cache.misses += c.misses;
        self.cache.evictions += c.evictions;
        self.cache.rejections += c.rejections;
        add_health(&mut self.health, &dev.health(), 1);
        self.blocks += blocks_allocated(dev);
    }
}

/// `acc += sign * h`, field by field.
pub fn add_health(acc: &mut DeviceHealth, h: &DeviceHealth, sign: i64) {
    let f = |a: &mut u64, b: u64| *a = (*a as i64 + sign * b as i64) as u64;
    f(&mut acc.reads, h.reads);
    f(&mut acc.bits_corrected, h.bits_corrected);
    f(&mut acc.retry_reads, h.retry_reads);
    f(&mut acc.retry_recoveries, h.retry_recoveries);
    f(&mut acc.uncorrectable_reads, h.uncorrectable_reads);
    f(&mut acc.parity_rebuilds, h.parity_rebuilds);
    f(&mut acc.pages_scrubbed, h.pages_scrubbed);
    f(&mut acc.relocations, h.relocations);
    f(&mut acc.uncorrectable_after_recovery, h.uncorrectable_after_recovery);
}

/// Blocks allocated across the device's planes.
fn blocks_allocated(dev: &mut FlashCosmosDevice) -> u64 {
    dev.ssd_mut().plane_pressures().iter().map(|&b| u64::from(b)).sum()
}

/// What one episode's clients did.
pub struct EpisodeRun {
    pub recorders: Vec<Recorder>,
    pub spans: Vec<Vec<Span>>,
    pub wall_s: f64,
    pub end: EpisodeEnd,
}

/// Runs `clients` client threads of one episode to completion.
pub fn run_episode(
    mut prepared: Prepared,
    clients: usize,
    traced: bool,
    origin: Instant,
    req0: u64,
) -> (EpisodeRun, Sizes) {
    let episode = &*prepared.episode;
    let start = Instant::now();
    let outs: Vec<(Recorder, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut rec = Recorder::default();
                    let mut tr = Tracer::new(traced, origin);
                    episode.run_client(c, &mut rec, &mut tr, req0);
                    (rec, tr)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut end = prepared.episode.finish();
    add_health(&mut end.health, &prepared.health0, -1);
    let (recorders, spans) = outs.into_iter().map(|(r, t)| (r, t.spans)).unzip();
    (EpisodeRun { recorders, spans, wall_s, end }, prepared.sizes)
}
