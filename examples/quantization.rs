//! The float-to-fixed quantization study (paper §V.A methodology):
//! compare float inference against the 16-bit fixed-point datapath on
//! LeNet-5 and the CIFAR-10 network at several Q-formats, reporting
//! SQNR — the check the paper ran through MatConvNet + ModelSim.
//!
//! ```text
//! cargo run --release --example quantization
//! ```

use chain_nn_repro::fixed::error::compare;
use chain_nn_repro::fixed::{OverflowMode, QFormat};
use chain_nn_repro::nets::synth::SynthSource;
use chain_nn_repro::nets::zoo;
use chain_nn_repro::tensor::conv::{conv2d_f32, conv2d_fix};
use chain_nn_repro::tensor::{ops, Tensor};

fn main() {
    for net in [zoo::lenet(), zoo::cifar10()] {
        println!("== {} ==", net.name());
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            "frac bits", "SQNR (dB)", "max |err|", "MSE"
        );
        for frac in [6u32, 8, 10, 12, 14] {
            let stats = run_network(&net, frac);
            println!(
                "{:>10} {:>12.1} {:>12.5} {:>12.3e}",
                format!("{}+{}", frac, frac),
                stats.sqnr_db(),
                stats.max_abs,
                stats.mse
            );
        }
        println!();
    }
    println!(
        "rule of thumb: ~6 dB per fractional bit until the integer range\n\
         saturates; the paper's 16-bit datapath corresponds to the upper rows."
    );

    // The same pipeline as the DSE sees it: one measured SQNR per
    // (network, operand width) pair, attached to every evaluated point
    // (dse::accuracy, DESIGN.md §11). This is what `--bits 8,16` sweeps
    // and `tune --min-sqnr-db` budget against.
    println!("\n== DSE accuracy model: measured SQNR per (network, word width) ==");
    println!(
        "{:>10} {:>8} {:>12} {:>12}",
        "network", "bits", "SQNR (dB)", "max |err|"
    );
    for net in ["lenet", "cifar10", "alexnet", "vgg16"] {
        for bits in [8u32, 16] {
            let network = chain_nn_repro::dse::network_by_name(net).expect("zoo network");
            let stats = chain_nn_repro::dse::accuracy::measure(network, bits).expect("measures");
            println!(
                "{net:>10} {bits:>8} {:>12.1} {:>12.5}",
                stats.sqnr_db, stats.max_abs
            );
        }
    }
    println!(
        "\nnarrow words stop dominating for free: the tuner's --min-sqnr-db\n\
         floor and the dse fps x mW x SQNR frontier both rank against these\n\
         measured values."
    );
}

/// Runs every conv layer of `net` in float and fixed point and compares
/// the final activations.
fn run_network(
    net: &chain_nn_repro::nets::Network,
    frac: u32,
) -> chain_nn_repro::fixed::error::ErrorStats {
    let mut src = SynthSource::new(42);
    let first = &net.layers()[0];
    let mut float_act = src.activations(first, 1, 2.0);

    let act_fmt = QFormat::new(frac).expect("valid format");
    let w_fmt = QFormat::new(frac).expect("valid format");

    let mut final_float = Tensor::<f32>::zeros([1, 1, 1, 1]);
    let mut final_fixed = final_float.clone();
    for layer in net.layers() {
        let weights = src.weights(layer);
        // Float reference.
        let fref =
            conv2d_f32(&float_act, &weights, None, layer.geometry()).expect("geometry consistent");
        let fref = ops::relu(&fref);
        // Fixed path quantizes the SAME inputs the float path consumed.
        let qa = float_act.map(|x| act_fmt.quantize(x));
        let qw = weights.map(|x| w_fmt.quantize(x));
        let raw = conv2d_fix(&qa, &qw, layer.geometry(), OverflowMode::Wrapping)
            .expect("geometry consistent");
        let scale = 2f32.powi(-(2 * frac as i32));
        let ffix = raw.map(|v| (v as f32 * scale).max(0.0));

        final_float = fref.clone();
        final_fixed = ffix;
        // Chain layers on the float activations (error accumulates only
        // through quantization at each boundary, like the hardware).
        float_act = fref;
    }
    compare(final_float.as_slice(), final_fixed.as_slice())
}
