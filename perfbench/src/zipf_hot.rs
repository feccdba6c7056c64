//! `zipf_hot`: Zipf-skewed AND co-queries over scattered operands on a
//! tiny-page device, served through the async session with the shipped
//! 256-entry result cache. The hot head of the query population fits the
//! cache and the tail does not, so host time goes to the serving software
//! (canonicalize, compile, admission, claim, retire, wake) and the cheap
//! 32-byte chip emulation stays a minority.

use std::time::Instant;

use fc_bits::BitVec;
use fc_ssd::SsdConfig;
use fc_workloads::skew::ZipfSampler;
use flash_cosmos::{Expr, FlashCosmosDevice, OperandId, QueryBatch, StoreHints};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::serve::{session_request, shadow_eval, verify};
use crate::stats::{Hist, Recorder};
use crate::trace::Tracer;
use crate::workload::{pick, Episode, EpisodeEnd, Prepared, Sizes, CLIENTS};

pub const OPERANDS: usize = 32;
pub const SET_SIZE: usize = 4;
/// Distinct AND sets the queries are drawn from.
pub const POPULATION: usize = 4096;
pub const THETA: f64 = 1.1;
pub const QUERIES_PER_BATCH: usize = 4;
/// Requests each client sends per episode.
pub const REQUESTS: usize = 2_000;

/// The `zipf_serving` geometry: tiny 32-byte pages on 8 channels × 4
/// dies, so scattered operands land on mostly distinct dies.
pub fn config() -> SsdConfig {
    let mut cfg = SsdConfig::tiny_test();
    cfg.channels = 8;
    cfg.dies_per_channel = 4;
    cfg
}

struct ZipfHot {
    dev: FlashCosmosDevice,
    /// Operand data by operand id.
    shadow: Vec<BitVec>,
    clients: Vec<Vec<QueryBatch>>,
}

pub fn prepare(seed: u64) -> Prepared {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dev = FlashCosmosDevice::new(config());
    let bits = dev.config().page_bits();
    let mut shadow = Vec::with_capacity(OPERANDS);
    let mut load_write_us = Hist::default();
    for i in 0..OPERANDS {
        let v = BitVec::random(bits, &mut rng);
        let t = Instant::now();
        let h = dev
            .fc_write(&format!("op{i}"), &v, StoreHints::and_group(&format!("solo{i}")))
            .expect("fresh device stores the operand set");
        load_write_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(h.id, i, "operand ids are dense in write order");
        shadow.push(v);
    }
    let sets: Vec<Vec<OperandId>> =
        (0..POPULATION).map(|_| pick(SET_SIZE, 0..OPERANDS, &mut rng)).collect();
    let zipf = ZipfSampler::new(POPULATION, THETA);
    let clients = (0..CLIENTS)
        .map(|_| {
            (0..REQUESTS)
                .map(|_| {
                    (0..QUERIES_PER_BATCH)
                        .map(|_| Expr::and_vars(sets[zipf.sample(&mut rng)].iter().copied()))
                        .collect()
                })
                .collect()
        })
        .collect();
    let sizes = Sizes::of(&mut dev, OPERANDS, POPULATION);
    let health0 = dev.health();
    Prepared { episode: Box::new(ZipfHot { dev, shadow, clients }), load_write_us, sizes, health0 }
}

impl Episode for ZipfHot {
    fn run_client(&self, client: usize, rec: &mut Recorder, tr: &mut Tracer, req0: u64) {
        for (i, batch) in self.clients[client].iter().enumerate() {
            let req = req0 + i as u64;
            tr.begin("bench.request", req);
            let (host_us, out) = session_request(&self.dev, batch, req, rec, tr);
            let ok = out.is_some_and(|out| {
                let failed: Vec<usize> = out.failures.iter().map(|f| f.query).collect();
                tr.span("bench.verify", req, || {
                    verify(rec, &out.results, &failed, |q| {
                        shadow_eval(&batch.queries()[q], &|id| &self.shadow[id])
                    })
                })
            });
            rec.req_us.push(if ok { host_us } else { f64::INFINITY });
            tr.end();
        }
    }

    fn finish(&mut self) -> EpisodeEnd {
        let mut end = EpisodeEnd::default();
        end.add_device(&mut self.dev);
        end
    }
}
