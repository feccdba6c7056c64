//! Turns a [`Run`] into the named metrics and prints them: a readable
//! report first, then the one-line JSON result a harness parses.

use crate::stats::{median, peak_rss_mib, percentile, ratio, Failure, Recorder};
use crate::trace::Profile;
use crate::{Args, Run};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// `host`, `modeled`, or `count` for derived bookkeeping.
    pub clock: &'static str,
}

fn m(name: &'static str, unit: &'static str, clock: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 }, clock }
}

/// The end-to-end metrics, from the untraced episodes.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let r = &run.untraced;
    let (req, writes) = (&run.req_windows, &run.write_windows);
    let modeled = &r.modeled_us;
    let q = r.queries as f64;
    vec![
        m("host_qps", "queries/s", "host", req.median(|w| w.qps)),
        m("host_lat_p50_us", "us", "host", req.median(|w| w.p50)),
        m("host_lat_p99_us", "us", "host", req.median(|w| w.p99)),
        m("write_lat_p50_us", "us", "host", writes.median(|w| w.p50)),
        m("write_lat_p99_us", "us", "host", writes.median(|w| w.p99)),
        m("modeled_qps", "queries/s", "modeled", ratio(q, modeled.sum / 1e6)),
        m("modeled_lat_p50_us", "us", "modeled", modeled.mid_quantile(0.50)),
        m("modeled_lat_p99_us", "us", "modeled", modeled.mid_quantile(0.99)),
        m("senses_per_query", "senses", "modeled", ratio(r.senses as f64, q)),
        m("energy_uj_per_query", "uJ", "modeled", ratio(r.energy_uj, q)),
        m("ok_frac", "ratio", "count", 1.0 - ratio(r.failed() as f64, r.attempted as f64)),
        m("setup_s", "s", "host", median(&mut run.setup_s.clone())),
        m("peak_rss_mib", "MiB", "host", peak_rss_mib()),
    ]
}

/// Host time per layer over the traced episodes, µs, in table order.
/// Built outside-in from the spans around each API call: compile is the
/// `compile_probe` estimate, chip emulation is the executing calls
/// (drain or cluster submit) minus their merge time (and, for the
/// synchronous cluster path, minus the compile estimate).
pub fn layer_host_us(p: &Profile, r: &Recorder) -> Vec<(&'static str, f64)> {
    let t = |n: &str| p.total_us(n);
    let compile = t("batch.compile_probe");
    let cluster = t("cluster.submit");
    let inner_compile = if cluster > 0.0 { compile } else { 0.0 };
    let c = &r.counters;
    vec![
        ("batch", compile),
        ("session", (t("session.submit_async") - compile).max(0.0) + t("session.wait")),
        ("ssd", (t("session.drain") + cluster - c.exec_merge_us - inner_compile).max(0.0)),
        ("crossdie", c.crossdie_merge_us),
        ("cluster", c.cluster_merge_us),
        ("device", t("device.fc_overwrite")),
        ("recovery", t("recovery.read_durable") + t("recovery.store_durable")),
        ("maintenance", t("maintenance.schedule")),
    ]
}

fn p(mut v: Vec<f64>, q: f64) -> f64 {
    percentile(&mut v, q)
}

/// The per-layer metrics, from the traced episodes (timings) and the
/// stats structs (counts).
pub fn per_layer(run: &Run, deterministic: bool) -> Vec<Metric> {
    let r = &run.traced;
    let pr = &run.profile;
    let c = &r.counters;
    let d = |n: &str| pr.durations(n);
    let batches = c.batches as f64;
    let requests = d("bench.request").len() as f64;
    let layers = layer_host_us(pr, r);
    let serving: f64 = layers.iter().map(|(_, us)| us).sum();
    let share = |name: &str| {
        ratio(layers.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, us)| *us), serving)
    };
    let ssd_us = layers.iter().find(|(n, _)| *n == "ssd").map_or(0.0, |(_, us)| *us);
    let (mut hits, mut misses, mut evictions, mut rejections) = (0, 0, 0, 0);
    let mut h = flash_cosmos::DeviceHealth::default();
    for e in &run.ends {
        hits += e.cache.hits;
        misses += e.cache.misses;
        evictions += e.cache.evictions;
        rejections += e.cache.rejections;
        crate::workload::add_health(&mut h, &e.health, 1);
    }
    let episodes = run.ends.len().max(1) as f64;
    let traced_episodes = run.traced_episodes.max(1) as f64;
    let untraced_qps = ratio(run.untraced.queries as f64, run.untraced_wall_s);
    let traced_qps = ratio(r.queries as f64, run.traced_wall_s);
    let overwrite_failed = r
        .error_kinds
        .iter()
        .filter(|(k, _)| k.starts_with("device.fc_overwrite"))
        .map(|(_, v)| *v)
        .sum::<u64>();
    let wordline_fill = ratio(
        run.wordlines_used.iter().sum::<u64>() as f64 / episodes,
        run.sizes.free_wordlines() as f64,
    );
    vec![
        m("expr.to_nnf_us", "us", "host", ratio(pr.total_us("expr.to_nnf"), r.queries as f64)),
        m("batch.compile_us_p50", "us", "host", p(d("batch.compile_probe"), 0.5)),
        m("batch.compile_us_p99", "us", "host", p(d("batch.compile_probe"), 0.99)),
        m(
            "batch.senses_saved_frac",
            "ratio",
            "modeled",
            ratio(c.senses_saved as f64, c.serial_senses as f64),
        ),
        m(
            "batch.shared_units_per_request",
            "units",
            "count",
            ratio(c.shared_units as f64, batches),
        ),
        m("batch.dedup_frac", "ratio", "count", ratio(c.deduped_queries as f64, r.queries as f64)),
        m("batch.dies_used", "dies", "modeled", ratio(c.dies_used as f64, batches)),
        m("batch.host_frac", "ratio", "host", share("batch")),
        m("audit.lint_us", "us", "host", p(d("audit.lint_probe"), 0.5)),
        m(
            "audit.lint_frac_of_compile",
            "ratio",
            "host",
            ratio(pr.total_us("audit.lint_probe"), pr.total_us("batch.compile_probe")),
        ),
        m("session.submit_us_p50", "us", "host", p(d("session.submit_async"), 0.5)),
        m("session.submit_us_p99", "us", "host", p(d("session.submit_async"), 0.99)),
        m("session.admit_us_p50", "us", "host", p(d("session.admit"), 0.5)),
        m("session.admit_us_p99", "us", "host", p(d("session.admit"), 0.99)),
        m("session.drain_us_p50", "us", "host", p(d("session.drain"), 0.5)),
        m("session.drain_us_p99", "us", "host", p(d("session.drain"), 0.99)),
        m("session.wait_us_p50", "us", "host", p(d("session.wait"), 0.5)),
        m("session.wait_us_p99", "us", "host", p(d("session.wait"), 0.99)),
        m(
            "session.batches_per_drain",
            "batches",
            "count",
            ratio(c.drained_batches as f64, c.drains as f64),
        ),
        m("session.overloaded", "count", "count", c.overloaded as f64),
        m("session.cache_hit_rate", "ratio", "count", ratio(hits as f64, (hits + misses) as f64)),
        m("session.cache_evictions", "count", "count", evictions as f64 / episodes),
        m("session.cache_rejections", "count", "count", rejections as f64 / episodes),
        m("session.host_frac", "ratio", "host", share("session")),
        m("pipeline.busiest_die_us", "us", "modeled", ratio(c.busiest_die_us, batches)),
        m("pipeline.busiest_channel_us", "us", "modeled", ratio(c.busiest_channel_us, batches)),
        m(
            "pipeline.channel_bound_frac",
            "ratio",
            "modeled",
            ratio(c.channel_bound as f64, batches),
        ),
        m("pipeline.merge_bound_frac", "ratio", "mixed", ratio(c.merge_bound as f64, batches)),
        m("pipeline.overlap_saved_us", "us", "modeled", ratio(c.overlap_saved_us, batches)),
        m("ssd.host_us_per_sense", "us", "host", ratio(ssd_us, r.senses as f64)),
        m("ssd.host_frac", "ratio", "host", share("ssd")),
        m("crossdie.merge_us", "us", "host", ratio(c.crossdie_merge_us, batches)),
        m("crossdie.host_frac", "ratio", "host", share("crossdie")),
        m("cluster.submit_us_p50", "us", "host", p(d("cluster.submit"), 0.5)),
        m("cluster.submit_us_p99", "us", "host", p(d("cluster.submit"), 0.99)),
        m("cluster.merge_us", "us", "host", ratio(c.cluster_merge_us, batches)),
        m("cluster.shards_per_request", "shards", "count", ratio(c.shards_touched as f64, batches)),
        m("cluster.host_frac", "ratio", "host", share("cluster")),
        m("device.overwrite_us_p50", "us", "host", p(d("device.fc_overwrite"), 0.5)),
        m("device.overwrite_us_p99", "us", "host", p(d("device.fc_overwrite"), 0.99)),
        m("device.overwrite_failed", "count", "count", overwrite_failed as f64),
        m("device.host_frac", "ratio", "host", share("device")),
        m("recovery.durable_read_us", "us", "host", p(d("recovery.read_durable"), 0.5)),
        m("recovery.durable_write_us", "us", "host", p(d("recovery.store_durable"), 0.5)),
        m("recovery.retry_reads", "count", "count", h.retry_reads as f64 / episodes),
        m("recovery.retry_recoveries", "count", "count", h.retry_recoveries as f64 / episodes),
        m("recovery.parity_rebuilds", "count", "count", h.parity_rebuilds as f64 / episodes),
        m("recovery.pages_scrubbed", "count", "count", h.pages_scrubbed as f64 / episodes),
        m(
            "recovery.uncorrectable_after_recovery",
            "count",
            "count",
            h.uncorrectable_after_recovery as f64,
        ),
        m("recovery.host_frac", "ratio", "host", share("recovery")),
        m("maintenance.jobs_executed", "count", "count", c.jobs_executed as f64 / traced_episodes),
        m("maintenance.jobs_deferred", "count", "count", c.jobs_deferred as f64 / traced_episodes),
        m("maintenance.jobs_retired", "count", "count", c.jobs_retired as f64 / traced_episodes),
        m("ftl.wordline_fill_frac", "ratio", "count", wordline_fill),
        m(
            "bench.wrong_results",
            "count",
            "count",
            (run.untraced.wrong_results() + r.wrong_results()) as f64,
        ),
        m(
            "bench.failed_frac",
            "ratio",
            "count",
            ratio(
                (run.untraced.failed() + r.failed()) as f64,
                (run.untraced.attempted + r.attempted) as f64,
            ),
        ),
        m("bench.verify_us", "us", "host", p(d("bench.verify"), 0.5)),
        m("bench.replay_deterministic", "bool", "modeled", f64::from(u8::from(deterministic))),
        m("bench.requests_traced", "count", "count", requests),
        m("trace.overhead_frac", "ratio", "host", 1.0 - ratio(traced_qps, untraced_qps)),
    ]
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|x| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, x.value, x.unit))
        .collect();
    format!("{{{}}}", body.join(", "))
}

pub fn print(args: &Args, run: &Run, deterministic: bool) {
    let s = &run.sizes;
    println!(
        "perfbench {} seed={} episodes={} clients={} closed-loop measured={:.2}s (untraced {:.2}s, traced {:.2}s)",
        args.kind.name(),
        args.seed,
        run.episodes,
        crate::CLIENTS,
        run.untraced_wall_s + run.traced_wall_s,
        run.untraced_wall_s,
        run.traced_wall_s,
    );
    println!(
        "sizes: page {} B, operands {}, query population {} vs cache {} entries/device, \
         free wordlines {} of {}, wordlines used per episode {:.0} mean / {} max (block \
         granular), nproc {}",
        s.page_bytes,
        s.operands,
        s.population,
        s.cache_capacity,
        s.free_wordlines(),
        s.wordlines,
        ratio(run.wordlines_used.iter().sum::<u64>() as f64, run.wordlines_used.len() as f64),
        run.wordlines_used.iter().max().unwrap_or(&0),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let all = {
        let mut a = run.untraced.clone();
        a.merge(run.traced.clone());
        a
    };
    println!(
        "samples: {} requests in {} windows ({} least stolen), {} writes in {} windows \
         ({} least stolen) ({}), {} query requests on the modeled clock",
        run.req_windows.samples,
        run.req_windows.windows.len(),
        run.req_windows.least_stolen().len(),
        run.write_windows.samples,
        run.write_windows.windows.len(),
        run.write_windows.least_stolen().len(),
        if args.kind.writes_in_loop() { "client writes" } else { "set-up operand writes" },
        run.untraced.modeled_us.len(),
    );
    println!(
        "correctness: attempted {}, failed {} (errors {}, refused {}, listed {}, wrong {}), \
         replay deterministic: {deterministic}",
        all.attempted,
        all.failed(),
        all.failures.get(&Failure::Error).unwrap_or(&0),
        all.failures.get(&Failure::Overloaded).unwrap_or(&0),
        all.failures.get(&Failure::Listed).unwrap_or(&0),
        all.wrong_results(),
    );
    for (kind, n) in &all.error_kinds {
        println!("  error {kind}: {n}");
    }
    let metrics = if args.trace {
        let pr = &run.profile;
        println!("span self time (traced episodes, {} spans):", pr.spans);
        for (name, us) in &pr.self_us {
            println!("  {name:<24} {:>14.1} us", us);
        }
        let layers = layer_host_us(pr, &run.traced);
        let total: f64 = layers.iter().map(|(_, us)| us).sum();
        let requests = pr.durations("bench.request").len().max(1) as f64;
        println!("serving host time by layer (traced episodes):");
        for (name, us) in &layers {
            println!(
                "  {name:<12} {:>10.2} us/request {:>6.1}%",
                us / requests,
                100.0 * ratio(*us, total)
            );
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.jsonl",
            args.kind.name(),
            args.seed
        ));
        match crate::trace::dump(&path, &run.first_spans, 20_000) {
            Ok(()) => println!("span dump: {}", path.display()),
            Err(e) => eprintln!("span dump to {} failed: {e}", path.display()),
        }
        per_layer(run, deterministic)
    } else {
        end_to_end(run)
    };
    for x in &metrics {
        println!("  {:<40} {:>16.4} {:<10} [{}]", x.name, x.value, x.unit, x.clock);
    }
    let rec = if args.trace { &all } else { &run.untraced };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        all.wrong_results() == 0 && deterministic,
        rec.attempted,
        rec.failed(),
        json_metrics(&metrics)
    );
}
