//! The fused model pass behind `dse::evaluate` against the separate
//! passes it replaced: one `PowerModel::network_power` call per point
//! must give exactly what running `PerfModel::network`,
//! `TrafficModel::network_traffic` and the power model one after the
//! other gives, down to the bit and to the `Infeasible` reason.

use chain_nn_repro::core::perf::{CycleModel, PerfModel};
use chain_nn_repro::core::ChainConfig;
use chain_nn_repro::dse::{evaluate, network_by_name, DesignPoint, PointOutcome};
use chain_nn_repro::energy::power::PowerModel;
use chain_nn_repro::mem::traffic::{totals, LayerTraffic, TrafficModel};
use chain_nn_repro::mem::MemoryConfig;

const NETS: [&str; 6] = [
    "lenet",
    "cifar10",
    "alexnet",
    "vgg16",
    "resnet18",
    "mobilenet",
];

/// Every zoo net over chains too short for some kernels (16 PEs cannot
/// hold a 5×5 kernel, 100 PEs an 11×11 one, so those points are
/// infeasible), both clocks, three batch sizes, paper-sized and tiny
/// SRAMs (psum spill), both word widths and two kMemory depths.
fn grid() -> Vec<DesignPoint> {
    let mut points = Vec::new();
    for net in NETS {
        for pes in [16, 49, 100, 121, 576, 1000] {
            for freq_mhz in [350.0, 700.0] {
                for batch in [1, 4, 128] {
                    for (imem_kb, omem_kb) in [(32, 25), (2, 1)] {
                        for word_bits in [8, 16] {
                            for kmem_depth in [256, 16] {
                                points.push(DesignPoint {
                                    pes,
                                    freq_mhz,
                                    kmem_depth,
                                    imem_kb,
                                    omem_kb,
                                    word_bits,
                                    batch,
                                    net: net.to_owned(),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    points
}

fn models(p: &DesignPoint) -> (ChainConfig, MemoryConfig) {
    let cfg = ChainConfig::builder()
        .num_pes(p.pes)
        .freq_mhz(p.freq_mhz)
        .kmemory_depth(p.kmem_depth)
        .build()
        .expect("grid chains are valid");
    let mem = MemoryConfig {
        imem_bytes: p.imem_kb * 1024,
        omem_bytes: p.omem_kb * 1024,
        word_bytes: p.word_bits as usize / 8,
    };
    (cfg, mem)
}

fn fnv1a(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn fused_pass_matches_the_separate_passes_on_every_zoo_net() {
    let mut infeasible = 0;
    for p in grid() {
        let (cfg, mem) = models(&p);
        let net = network_by_name(&p.net).expect("zoo net");
        let outcome = evaluate(&p).expect("grid points are well-formed");
        // The separate passes, in the order evaluate used to run them:
        // a perf error on any layer is reported before a traffic error.
        let perf = PerfModel::new(cfg).network(net, p.batch, CycleModel::PaperCalibrated);
        let rows = TrafficModel::new(cfg, mem).network_traffic(net, p.batch);
        let power =
            PowerModel::with_operand_bits(cfg, mem, p.word_bits).network_power(net, p.batch);
        match (&outcome, perf, rows) {
            (PointOutcome::Feasible(r), Ok(perf), Ok(rows)) => {
                let power = power.expect("feasible point has a power report");
                assert_eq!(r.fps.to_bits(), perf.fps.to_bits(), "{p}: fps");
                assert_eq!(
                    r.achieved_gops.to_bits(),
                    perf.gops.to_bits(),
                    "{p}: achieved GOPS"
                );
                assert_eq!(power.perf.total_ms.to_bits(), perf.total_ms.to_bits());
                assert_eq!(
                    LayerTraffic {
                        name: "Total".to_owned(),
                        ..power.traffic
                    },
                    totals(&rows),
                    "{p}: traffic totals"
                );
                assert_eq!(r.chip_mw.to_bits(), power.breakdown.total_mw().to_bits());
                assert_eq!(r.dram_mw.to_bits(), power.dram_mw.to_bits());
            }
            (PointOutcome::Infeasible(reason), perf, rows) => {
                infeasible += 1;
                let expected = match (perf, rows) {
                    (Err(e), _) | (Ok(_), Err(e)) => e.to_string(),
                    (Ok(_), Ok(_)) => panic!("{p}: infeasible but every pass maps"),
                };
                assert_eq!(reason, &expected, "{p}: infeasible reason");
                assert_eq!(power.expect_err("infeasible").to_string(), expected);
            }
            (PointOutcome::Feasible(_), ..) => panic!("{p}: feasible but a pass failed"),
        }
    }
    // The grid must exercise both kinds of outcome.
    assert_eq!(infeasible, 288);
}

/// `evaluate`'s outcomes and `network_power`'s reports over the grid,
/// digested (every float by its shortest round-trip text, so by its
/// bits). The constants were recorded from the three-pass model stack
/// this one pass replaced; any drift in a figure or a reason moves them.
#[test]
fn outcomes_and_power_reports_are_unchanged_from_the_three_pass_stack() {
    let mut eval_hash = 0xcbf2_9ce4_8422_2325u64;
    let mut power_hash = 0xcbf2_9ce4_8422_2325u64;
    for p in grid() {
        let outcome = evaluate(&p).expect("grid points are well-formed");
        fnv1a(&mut eval_hash, &format!("{outcome:?}\n"));
        let (cfg, mem) = models(&p);
        let net = network_by_name(&p.net).expect("zoo net");
        let line = match PowerModel::with_operand_bits(cfg, mem, p.word_bits)
            .network_power(net, p.batch)
        {
            Ok(r) => format!("{:?} {:?} {:?}\n", r.breakdown, r.dram_mw, r.peak_gops),
            Err(e) => format!("{e}\n"),
        };
        fnv1a(&mut power_hash, &line);
    }
    assert_eq!(eval_hash, 0x2543_4541_4bc4_a158, "evaluate outcomes moved");
    assert_eq!(power_hash, 0x991a_b0d4_253d_3502, "power reports moved");
}
