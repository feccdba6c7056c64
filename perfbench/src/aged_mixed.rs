//! `aged_mixed`: writes beside reads on the physics error model at an
//! aged corner (48 months retention, 8k P/E cycles on the durable
//! records' blocks, read disturb on a hot operand), parity on, tiny pages.
//! Each client owns a disjoint set of operands and durable records and
//! runs 40 operations per episode: Zipf MWS queries interleaved with
//! `fc_overwrite` of its own operands and `store_durable` /
//! `read_durable` of its records (ECC). Client 0 schedules regroup
//! maintenance every 16 operations. Scrubbing starts at 1% of the ECC
//! margin. This is the only workload that exercises the write path: FTL
//! allocation, ESP programming, ECC, scrubbing, parity upkeep,
//! write-lock contention and cache invalidation.
//!
//! The corner is chosen so that no operation fails. Episodes write under
//! half of the free wordlines: nothing erases blocks yet, and a placement
//! domain runs out well before the whole device does. 8k cycles load the
//! ECC without reaching the read-retry ladder, because wherever the ladder
//! fires regularly some reads come back silently miscorrected; at 8k the
//! shipped scrub threshold (2%) never triggers. No fault is injected,
//! because every fault kind is followed by failures. `perfbench/NOTES.md`
//! lists these defects.

use std::collections::HashMap;
use std::time::Instant;

use fc_bits::BitVec;
use fc_ssd::ecc::EccConfig;
use fc_ssd::SsdConfig;
use fc_workloads::skew::ZipfSampler;
use flash_cosmos::{
    Expr, FaultPlan, FcError, FlashCosmosDevice, OperandId, QueryBatch, ScrubConfig, StoreHints,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::serve::{session_request, shadow_eval, verify};
use crate::stats::{Hist, Recorder};
use crate::trace::Tracer;
use crate::workload::{pick, Episode, EpisodeEnd, Prepared, Sizes, CLIENTS};

pub const GROUPS_PER_CLIENT: usize = 2;
pub const MEMBERS: usize = 4;
const OPERANDS_PER_CLIENT: usize = GROUPS_PER_CLIENT * MEMBERS;
/// AND sets each client queries (Zipf-ranked).
pub const SETS_PER_CLIENT: usize = 12;
pub const THETA: f64 = 1.1;
pub const QUERIES_PER_BATCH: usize = 2;
pub const RECORD_BITS: usize = 400;
pub const INITIAL_RECORDS: usize = 3;
pub const RETENTION_MONTHS: f64 = 48.0;
/// Extra senses on the blocks of one hot operand.
pub const DISTURB_READS: u64 = 50_000;
/// Client 0 plans regroup maintenance every this many operations.
const MAINTAIN_EVERY: usize = 16;
/// Operations each client runs per episode.
pub const OPS: usize = 40;
/// P/E cycles aged onto the durable records' blocks.
pub const PE_CYCLES: u32 = 8_000;
/// Scrub a page once its predicted RBER reaches this fraction of the ECC
/// margin.
pub const SCRUB_MARGIN: f64 = 0.01;

enum Op {
    Query(QueryBatch),
    Overwrite { slot: usize, data: BitVec },
    ReadDurable(usize),
    StoreDurable(BitVec),
    Maintain,
}

struct Client {
    names: Vec<String>,
    initial: Vec<BitVec>,
    slot_of: HashMap<OperandId, usize>,
    records: Vec<BitVec>,
    ops: Vec<Op>,
}

struct AgedMixed {
    dev: FlashCosmosDevice,
    clients: Vec<Client>,
}

pub fn prepare(seed: u64) -> Prepared {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dev = FlashCosmosDevice::new_physics(SsdConfig::tiny_test());
    dev.ssd_mut().set_ecc(EccConfig::durable());
    dev.enable_parity();
    dev.set_scrub_config(ScrubConfig { margin_fraction: SCRUB_MARGIN, ..dev.scrub_config() });
    let bits = dev.config().page_bits();
    let mut load_write_us = Hist::default();
    let mut clients = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut names = Vec::new();
        let mut initial = Vec::new();
        let mut slot_of = HashMap::new();
        for g in 0..GROUPS_PER_CLIENT {
            for m in 0..MEMBERS {
                let name = format!("c{c}g{g}m{m}");
                let v = BitVec::random(bits, &mut rng);
                let t = Instant::now();
                let h = dev
                    .fc_write(&name, &v, StoreHints::and_group(&format!("c{c}g{g}")))
                    .expect("fresh device stores the operand set");
                load_write_us.push(t.elapsed().as_secs_f64() * 1e6);
                slot_of.insert(h.id, names.len());
                names.push(name);
                initial.push(v);
            }
        }
        let mut records = Vec::new();
        for r in 0..INITIAL_RECORDS {
            let v = BitVec::random(RECORD_BITS, &mut rng);
            let t = Instant::now();
            dev.store_durable(&format!("c{c}r{r}"), &v).expect("fresh device stores the records");
            load_write_us.push(t.elapsed().as_secs_f64() * 1e6);
            records.push(v);
        }
        clients.push(Client { names, initial, slot_of, records, ops: Vec::new() });
    }
    // The aged corner. Records interleave into shared blocks, so aging
    // one record ages every record's blocks.
    dev.inject_faults(
        &FaultPlan::new()
            .retention(RETENTION_MONTHS)
            .age("c0r0", PE_CYCLES)
            .disturb("c0g0m0", DISTURB_READS),
    )
    .expect("the aged corner is injectable");

    for (c, client) in clients.iter_mut().enumerate() {
        let ids: Vec<OperandId> = {
            let mut v: Vec<_> = client.slot_of.iter().map(|(&id, &slot)| (slot, id)).collect();
            v.sort_unstable();
            v.into_iter().map(|(_, id)| id).collect()
        };
        let sets: Vec<Expr> = (0..SETS_PER_CLIENT)
            .map(|_| {
                let n = rng.gen_range(2..=MEMBERS);
                Expr::and_vars(pick(n, ids.iter().copied(), &mut rng))
            })
            .collect();
        let set_zipf = ZipfSampler::new(SETS_PER_CLIENT, THETA);
        let operand_zipf = ZipfSampler::new(OPERANDS_PER_CLIENT, THETA);
        let mut records = client.records.len();
        client.ops = (0..OPS)
            .map(|i| {
                if c == 0 && i % MAINTAIN_EVERY == MAINTAIN_EVERY - 1 {
                    return Op::Maintain;
                }
                match rng.gen_range(0..8) {
                    0..=4 => Op::Query(
                        (0..QUERIES_PER_BATCH)
                            .map(|_| sets[set_zipf.sample(&mut rng)].clone())
                            .collect(),
                    ),
                    5 => Op::Overwrite {
                        slot: operand_zipf.sample(&mut rng),
                        data: BitVec::random(bits, &mut rng),
                    },
                    6 => {
                        // Most recent records are the hottest.
                        let rank = ZipfSampler::new(records, THETA).sample(&mut rng);
                        Op::ReadDurable(records - 1 - rank)
                    }
                    _ => {
                        records += 1;
                        Op::StoreDurable(BitVec::random(RECORD_BITS, &mut rng))
                    }
                }
            })
            .collect();
    }
    let sizes = Sizes::of(&mut dev, CLIENTS * OPERANDS_PER_CLIENT, CLIENTS * SETS_PER_CLIENT);
    let health0 = dev.health();
    Prepared { episode: Box::new(AgedMixed { dev, clients }), load_write_us, sizes, health0 }
}

/// Runs one write request inside span `span`. A failed write counts as a
/// failure and ranks above every completed one. Returns whether it
/// succeeded.
fn timed_write(
    rec: &mut Recorder,
    tr: &mut Tracer,
    span: &'static str,
    req: u64,
    write: impl FnOnce() -> Result<(), FcError>,
) -> bool {
    rec.attempted += 1;
    let start = Instant::now();
    let res = tr.span(span, req, write);
    let us = match res {
        Ok(()) => start.elapsed().as_secs_f64() * 1e6,
        Err(e) => {
            rec.error(span, &e);
            f64::INFINITY
        }
    };
    rec.req_us.push(us);
    rec.write_us.push(us);
    us.is_finite()
}

impl Episode for AgedMixed {
    fn run_client(&self, client: usize, rec: &mut Recorder, tr: &mut Tracer, req0: u64) {
        let dev = &self.dev;
        let me = &self.clients[client];
        let mut shadow = me.initial.clone();
        // `None`: the store of that record failed.
        let mut records: Vec<Option<BitVec>> = me.records.iter().cloned().map(Some).collect();
        for (i, op) in me.ops.iter().enumerate() {
            let req = req0 + i as u64;
            tr.begin("bench.request", req);
            match op {
                Op::Query(batch) => {
                    let (host_us, out) = session_request(dev, batch, req, rec, tr);
                    let ok = out.is_some_and(|out| {
                        let failed: Vec<usize> = out.failures.iter().map(|f| f.query).collect();
                        let lookup = |id: OperandId| &shadow[me.slot_of[&id]];
                        tr.span("bench.verify", req, || {
                            verify(rec, &out.results, &failed, |q| {
                                shadow_eval(&batch.queries()[q], &lookup)
                            })
                        })
                    });
                    rec.req_us.push(if ok { host_us } else { f64::INFINITY });
                }
                Op::Overwrite { slot, data } => {
                    let name = &me.names[*slot];
                    if timed_write(rec, tr, "device.fc_overwrite", req, || {
                        dev.fc_overwrite(name, data).map(drop)
                    }) {
                        shadow[*slot] = data.clone();
                    }
                }
                Op::StoreDurable(data) => {
                    let name = format!("c{client}r{}", records.len());
                    let ok = timed_write(rec, tr, "recovery.store_durable", req, || {
                        dev.store_durable(&name, data)
                    });
                    records.push(ok.then(|| data.clone()));
                }
                Op::ReadDurable(r) => {
                    rec.attempted += 1;
                    let name = format!("c{client}r{r}");
                    let start = Instant::now();
                    let res = tr.span("recovery.read_durable", req, || dev.read_durable(&name));
                    let us = start.elapsed().as_secs_f64() * 1e6;
                    let ok = match res {
                        Ok(got) => {
                            let ok =
                                tr.span("bench.verify", req, || records[*r].as_ref() == Some(&got));
                            if !ok {
                                rec.wrong("read_durable");
                            }
                            ok
                        }
                        Err(e) => {
                            rec.error("read_durable", &e);
                            false
                        }
                    };
                    rec.req_us.push(if ok { us } else { f64::INFINITY });
                }
                Op::Maintain => {
                    tr.span("maintenance.schedule", req, || dev.schedule_maintenance());
                }
            }
            tr.end();
        }
    }

    fn finish(&mut self) -> EpisodeEnd {
        let mut end = EpisodeEnd::default();
        end.add_device(&mut self.dev);
        end
    }
}
