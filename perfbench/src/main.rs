//! The repository benchmark: closed-loop workloads against the public
//! Flash-Cosmos API, reported on two clocks.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf_hot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced episodes and prints the per-layer metrics, the
//! per-layer host-time table and the tracing overhead. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (`{name: {value, unit}}`). Everything before it is a
//! human-readable report. `perfbench/NOTES.md` describes the workloads,
//! the metrics and the defects the benchmark found.
//!
//! The *host clock* is wall time measured around the API calls. The
//! *modeled clock* is the device model's NAND time (`critical_path_us`,
//! senses, energy): it comes from a model that has not been validated
//! against hardware.

mod aged_mixed;
mod report;
mod scan_16k;
mod serve;
mod stats;
mod trace;
mod workload;
mod zipf_hot;

use std::process::ExitCode;
use std::time::Instant;

use stats::Recorder;
use trace::{Profile, Span};
use workload::{run_episode, EpisodeEnd, Prepared, Sizes, CLIENTS};

/// Workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_221_001;

/// Episodes every run sets up at least (the `setup_s` median needs
/// several).
const MIN_EPISODES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ZipfHot,
    Scan16k,
    AgedMixed,
}

impl Kind {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "zipf_hot" => Kind::ZipfHot,
            "scan_16k" => Kind::Scan16k,
            "aged_mixed" => Kind::AgedMixed,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ZipfHot => "zipf_hot",
            Kind::Scan16k => "scan_16k",
            Kind::AgedMixed => "aged_mixed",
        }
    }

    /// Whether the clients write; the others report their set-up's
    /// operand writes as `write_lat_*`.
    fn writes_in_loop(self) -> bool {
        self == Kind::AgedMixed
    }

    fn prepare(self, seed: u64) -> Prepared {
        match self {
            Kind::ZipfHot => zipf_hot::prepare(seed),
            Kind::Scan16k => scan_16k::prepare(seed),
            Kind::AgedMixed => aged_mixed::prepare(seed),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required (zipf_hot, scan_16k, aged_mixed)")?;
    Ok(Args { kind, seed, seconds, trace })
}

/// Seed of episode `ep` of a run: the run seed mixed with the index.
fn episode_seed(seed: u64, ep: u64) -> u64 {
    let mut z = seed ^ ep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a run measured, split by whether the episode was traced.
#[derive(Default)]
pub struct Run {
    pub untraced: Recorder,
    pub traced: Recorder,
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
    pub setup_s: Vec<f64>,
    pub profile: Profile,
    /// Spans of the first traced episode, per client (for the dump).
    pub first_spans: Vec<Vec<Span>>,
    pub ends: Vec<EpisodeEnd>,
    /// Wordlines consumed by each episode's clients (block granular).
    pub wordlines_used: Vec<u64>,
    pub sizes: Sizes,
    pub episodes: usize,
    pub traced_episodes: usize,
    /// Untraced request latencies and throughput, by window.
    pub req_windows: stats::Windows,
    /// Untraced write latencies (the loop's writes, or the set-up's
    /// operand writes for workloads without writes in their loop).
    pub write_windows: stats::Windows,
}

/// Samples a host-clock window must hold (p99 then has 10 beyond it).
const WINDOW_SAMPLES: u64 = 1_000;

fn measure(args: &Args) -> Run {
    let origin = Instant::now();
    let mut run = Run {
        req_windows: stats::Windows::new(WINDOW_SAMPLES),
        write_windows: stats::Windows::new(WINDOW_SAMPLES),
        ..Run::default()
    };
    let mut ep = 0u64;
    while run.untraced_wall_s + run.traced_wall_s < args.seconds || run.episodes < MIN_EPISODES {
        let traced = args.trace && ep % 2 == 1;
        let steal0 = stats::steal_ticks();
        let t = Instant::now();
        let mut prepared = args.kind.prepare(episode_seed(args.seed, ep));
        let setup_s = t.elapsed().as_secs_f64();
        run.setup_s.push(setup_s);
        let load_writes = std::mem::take(&mut prepared.load_write_us);
        let steal1 = stats::steal_ticks();
        let (out, sizes) = run_episode(prepared, CLIENTS, traced, origin, ep << 32);
        let steal2 = stats::steal_ticks();
        run.wordlines_used.push(
            (out.end.blocks * sizes.wls_per_block).saturating_sub(sizes.wordlines_used_at_setup),
        );
        run.sizes = sizes;
        run.ends.push(out.end);
        let mut rec = Recorder::default();
        for r in out.recorders {
            rec.merge(r);
        }
        if traced {
            run.traced_wall_s += out.wall_s;
            for spans in &out.spans {
                run.profile.add(spans);
            }
            if run.first_spans.is_empty() {
                run.first_spans = out.spans;
            }
            run.traced.merge(rec);
            run.traced_episodes += 1;
        } else {
            run.untraced_wall_s += out.wall_s;
            run.req_windows.add(
                &rec.req_us,
                rec.queries,
                out.wall_s,
                steal2.saturating_sub(steal1),
            );
            if args.kind.writes_in_loop() {
                run.write_windows.add(&rec.write_us, 0, out.wall_s, steal2.saturating_sub(steal1));
            } else {
                run.write_windows.add(&load_writes, 0, setup_s, steal1.saturating_sub(steal0));
            }
            run.untraced.merge(rec);
        }
        run.episodes += 1;
        ep += 1;
    }
    run.req_windows.finish();
    run.write_windows.finish();
    run
}

/// Single-client replay of episode 0 at the run's seed, twice: the
/// modeled-clock results must repeat exactly.
fn replay_is_deterministic(kind: Kind, seed: u64) -> bool {
    let once = || {
        let (out, _) =
            run_episode(kind.prepare(episode_seed(seed, 0)), 1, false, Instant::now(), 0);
        let r = &out.recorders[0];
        (r.senses, r.energy_uj.to_bits(), r.modeled_us.clone())
    };
    once() == once()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = measure(&args);
    let deterministic = replay_is_deterministic(args.kind, args.seed);
    report::print(&args, &run, deterministic);
    ExitCode::SUCCESS
}
