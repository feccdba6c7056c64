//! Property-based tests of the chip state machine: MWS correctness over
//! arbitrary target sets, command-frame codec roundtrips, the leaf
//! runner's equivalence with one-command execution, and the footnote-15
//! MLC LSB-page operating mode.

use fc_bits::BitVec;
use fc_nand::chip::NandChip;
use fc_nand::command::{decode_frame, encode_frame, Command, IscmFlags, MwsTarget};
use fc_nand::config::ChipConfig;
use fc_nand::geometry::BlockAddr;
use fc_nand::ispp::ProgramScheme;
use proptest::prelude::*;

fn chip() -> NandChip {
    NandChip::new(ChipConfig::tiny_test())
}

/// A chip with three programmed blocks in plane 0 and faulty columns:
/// block 0 ESP (error-free), block 1 regular SLC on an aged block (so
/// injection draws errors when it is on), block 2 ESP with grown stuck
/// columns. Two calls with the same arguments build identical chips.
fn runner_chip(seed: u64, inject: bool) -> NandChip {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let base = if inject { ChipConfig::tiny_noisy() } else { ChipConfig::tiny_test() };
    let mut chip = NandChip::new(base.with_seed(seed).with_faulty_columns(0.05));
    let bits = chip.config().geometry.page_bits();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    chip.cycle_block(BlockAddr::new(0, 1), 10_000).unwrap();
    chip.set_retention_months(12.0);
    for block in 0..3u32 {
        let blk = BlockAddr::new(0, block);
        let scheme = if block == 1 { ProgramScheme::Slc } else { ProgramScheme::esp_default() };
        for wl in 0..8 {
            let data = BitVec::random(bits, &mut rng);
            chip.execute(Command::Program {
                addr: blk.wordline(wl),
                data,
                scheme,
                randomize: false,
            })
            .unwrap();
        }
    }
    let mask = BitVec::random_with_density(bits, 0.1, &mut rng);
    let value = BitVec::random(bits, &mut rng);
    chip.set_block_stuck(BlockAddr::new(0, 2), mask, value).unwrap();
    chip
}

/// A random leaf-shaped program over `runner_chip`'s blocks: reads,
/// single- and multi-block MWS with random ISCM flags, and threshold
/// votes with k on both sides of the wordline count.
fn random_program(seed: u64) -> Vec<Command> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(1usize..5);
    (0..len)
        .map(|_| {
            let block = BlockAddr::new(0, rng.gen_range(0..3));
            let pbm = rng.gen_range(1u64..256);
            match rng.gen_range(0..4) {
                0 => Command::Read {
                    addr: block.wordline(rng.gen_range(0..8)),
                    inverse: rng.gen_bool(0.5),
                },
                1 => Command::Mws {
                    flags: IscmFlags::from_nibble(rng.gen_range(0..16)),
                    targets: vec![MwsTarget { block, pbm }],
                },
                2 => {
                    // Two or three distinct blocks, starting anywhere.
                    let first = rng.gen_range(0u32..3);
                    let n = rng.gen_range(2u32..4);
                    Command::Mws {
                        flags: IscmFlags::from_nibble(rng.gen_range(0..16)),
                        targets: (0..n)
                            .map(|i| MwsTarget {
                                block: BlockAddr::new(0, (first + i) % 3),
                                pbm: rng.gen_range(1u64..256),
                            })
                            .collect(),
                    }
                }
                _ => {
                    let n = pbm.count_ones() as usize;
                    Command::ThresholdMws {
                        target: MwsTarget { block, pbm },
                        k: rng.gen_range(1..n + 2),
                    }
                }
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Intra-block MWS equals the AND of the targeted pages for any
    /// non-empty wordline subset.
    #[test]
    fn intra_mws_is_and_for_any_subset(
        pbm in 1u64..256, // 8 wordlines in the tiny geometry
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut chip = chip();
        let blk = BlockAddr::new(0, 0);
        let bits = chip.config().geometry.page_bits();
        let mut rng = StdRng::seed_from_u64(seed);
        let pages: Vec<BitVec> = (0..8u32)
            .map(|wl| {
                let p = BitVec::random(bits, &mut rng);
                chip.execute(Command::esp_program(blk.wordline(wl), p.clone())).unwrap();
                p
            })
            .collect();
        let target = MwsTarget { block: blk, pbm };
        let out = chip
            .execute(Command::Mws { flags: IscmFlags::single_read(), targets: vec![target] })
            .unwrap();
        let mut expect = BitVec::ones(bits);
        for wl in target.wls() {
            expect.and_assign(&pages[wl as usize]);
        }
        prop_assert_eq!(out.page().unwrap(), &expect);
    }

    /// The leaf runner is one-command execution without the per-sense
    /// snapshots: on two same-seed chips, `run_program` and a loop of
    /// `execute` calls plus a `ReadOut` read out the same page, sum the
    /// same latency and energy, leave the same `ChipStats`, and leave
    /// the RNG at the same point (the next injected-error draw agrees).
    #[test]
    fn run_program_matches_execute_loop(
        chip_seed in any::<u64>(),
        program_seed in any::<u64>(),
        inject in any::<bool>(),
    ) {
        let program = random_program(program_seed);
        let mut one_by_one = runner_chip(chip_seed, inject);
        let mut runner = runner_chip(chip_seed, inject);

        let (mut latency, mut energy) = (0.0, 0.0);
        for cmd in &program {
            let out = one_by_one.execute(cmd.clone()).unwrap();
            latency += out.latency_us;
            energy += out.energy_uj;
        }
        let page = one_by_one.execute(Command::ReadOut { plane: 0 }).unwrap().into_page();

        let mut run_energy = 0.0;
        let (run_page, run_latency) = runner.run_program(&program, 0, &mut run_energy).unwrap();
        prop_assert_eq!(page.as_ref(), Some(&run_page));
        prop_assert_eq!(latency.to_bits(), run_latency.to_bits());
        prop_assert_eq!(energy.to_bits(), run_energy.to_bits());
        prop_assert_eq!(one_by_one.stats(), runner.stats());

        let probe = Command::Read { addr: BlockAddr::new(0, 1).wordline(3), inverse: false };
        let next = one_by_one.execute(probe.clone()).unwrap().into_page();
        let run_next = runner.execute(probe).unwrap().into_page();
        prop_assert_eq!(next, run_next);
        prop_assert_eq!(one_by_one.stats(), runner.stats());
    }

    /// Inter-block MWS equals the OR of per-block ANDs (Eq. 1) for any
    /// pair of non-empty subsets in two blocks.
    #[test]
    fn inter_mws_is_or_of_block_ands(
        pbm_a in 1u64..256,
        pbm_b in 1u64..256,
        inverse in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut chip = chip();
        let blk_a = BlockAddr::new(0, 1);
        let blk_b = BlockAddr::new(0, 2);
        let bits = chip.config().geometry.page_bits();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut program_block = |blk: BlockAddr| -> Vec<BitVec> {
            (0..8u32)
                .map(|wl| {
                    let p = BitVec::random(bits, &mut rng);
                    chip.execute(Command::esp_program(blk.wordline(wl), p.clone())).unwrap();
                    p
                })
                .collect()
        };
        let pages_a = program_block(blk_a);
        let pages_b = program_block(blk_b);
        let flags = if inverse {
            IscmFlags::single_inverse_read()
        } else {
            IscmFlags::single_read()
        };
        let out = chip
            .execute(Command::Mws {
                flags,
                targets: vec![
                    MwsTarget { block: blk_a, pbm: pbm_a },
                    MwsTarget { block: blk_b, pbm: pbm_b },
                ],
            })
            .unwrap();
        let and_of = |pages: &[BitVec], pbm: u64| {
            let mut acc = BitVec::ones(bits);
            for (wl, page) in pages.iter().enumerate() {
                if pbm & (1 << wl) != 0 {
                    acc.and_assign(page);
                }
            }
            acc
        };
        let mut expect = and_of(&pages_a, pbm_a).or(&and_of(&pages_b, pbm_b));
        if inverse {
            expect.not_assign();
        }
        prop_assert_eq!(out.page().unwrap(), &expect);
    }

    /// The Fig. 15a wire-frame codec roundtrips any flag/target set.
    #[test]
    fn frame_codec_roundtrips(
        nibble in 0u8..16,
        blocks in prop::collection::vec((0u32..2, 0u32..1024, 1u64..u64::MAX), 1..4),
    ) {
        let flags = IscmFlags::from_nibble(nibble);
        let targets: Vec<MwsTarget> = blocks
            .into_iter()
            .map(|(plane, block, pbm)| MwsTarget { block: BlockAddr::new(plane, block), pbm })
            .collect();
        let frame = encode_frame(flags, &targets);
        let (f2, t2) = decode_frame(&frame).unwrap();
        prop_assert_eq!(f2, flags);
        prop_assert_eq!(t2, targets);
    }

    /// MWS latency and energy are monotone in scope: more wordlines or
    /// more blocks never sense faster or cheaper.
    #[test]
    fn mws_cost_is_monotone(n_wls in 1u32..8, n_blocks in 1usize..4) {
        let mut chip = chip();
        let bits = chip.config().geometry.page_bits();
        for b in 0..4u32 {
            for wl in 0..8u32 {
                chip.execute(Command::esp_program(
                    BlockAddr::new(0, b).wordline(wl),
                    BitVec::ones(bits),
                ))
                .unwrap();
            }
        }
        let run = |chip: &mut NandChip, wls: u32, blocks: usize| {
            let targets: Vec<MwsTarget> = (0..blocks)
                .map(|b| MwsTarget::all_wls(BlockAddr::new(0, b as u32), wls))
                .collect();
            chip.execute(Command::Mws { flags: IscmFlags::single_read(), targets }).unwrap()
        };
        let base = run(&mut chip, n_wls, n_blocks);
        let more_wls = run(&mut chip, n_wls + 1, n_blocks);
        let more_blocks = run(&mut chip, n_wls, n_blocks + 1);
        prop_assert!(more_wls.latency_us >= base.latency_us);
        prop_assert!(more_blocks.latency_us >= base.latency_us);
        prop_assert!(more_blocks.energy_uj > base.energy_uj);
    }
}

/// Footnote 15: Flash-Cosmos on MLC NAND with operands in LSB pages —
/// "the mechanism of LSB-page reads is the same as SLC-page reads". The
/// chip supports `ProgramScheme::Mlc` pages whose single-bit payload is
/// read at the LSB level; MWS works, but reliability is only ParaBit-
/// grade (MLC RBER, not zero).
#[test]
fn footnote15_mlc_lsb_pages_support_mws() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut chip = NandChip::new(ChipConfig::tiny_test());
    let blk = BlockAddr::new(0, 3);
    let bits = chip.config().geometry.page_bits();
    let mut rng = StdRng::seed_from_u64(15);
    let pages: Vec<BitVec> = (0..4u32)
        .map(|wl| {
            let p = BitVec::random(bits, &mut rng);
            chip.execute(Command::Program {
                addr: blk.wordline(wl),
                data: p.clone(),
                scheme: ProgramScheme::Mlc,
                randomize: false,
            })
            .unwrap();
            p
        })
        .collect();
    let out = chip
        .execute(Command::Mws {
            flags: IscmFlags::single_read(),
            targets: vec![MwsTarget::new(blk, &[0, 1, 2, 3])],
        })
        .unwrap();
    let expect = pages.iter().skip(1).fold(pages[0].clone(), |a, p| a.and(p));
    assert_eq!(out.page().unwrap(), &expect, "error-free chip: LSB MWS is exact");
}

#[test]
fn footnote15_mlc_lsb_reliability_is_parabit_grade() {
    use fc_nand::rber::RberModel;
    use fc_nand::stress::StressState;
    let model = RberModel::paper();
    let stress = StressState::worst_case();
    let mlc_lsb = model.rber(ProgramScheme::Mlc, false, stress);
    let esp = model.rber(ProgramScheme::esp_default(), false, stress);
    // MLC LSB operation carries MLC-grade RBER — usable only by
    // error-tolerant applications (the ParaBit situation), unlike ESP.
    assert!(mlc_lsb > 1e-3, "MLC LSB RBER {mlc_lsb}");
    assert_eq!(esp, 0.0);
}
