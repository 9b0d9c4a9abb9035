//! The autograd tape's byte accounting, which perfbench's
//! `tensor.tape_peak_bytes`, the learner's `AutogradTape` memory
//! component and the telemetry snapshots read: a ConvNet pass charges
//! its nodes to the tape, the high-water mark covers that level, and
//! dropping the graph's last handle releases every byte at once.
//!
//! Its own binary because it switches telemetry on process-wide.

use deco_nn::{weighted_cross_entropy, ConvNet, ConvNetConfig, GradList};
use deco_telemetry::{global_tracker, MemoryComponent};
use deco_tensor::{
    reset_tape_peak, tape_current_bytes, tape_peak_bytes, Reduction, Rng, Tensor, Var,
};

fn tracked() -> u64 {
    global_tracker().current(MemoryComponent::AutogradTape)
}

#[test]
fn convnet_passes_charge_the_tape_until_their_last_handle_drops() {
    deco_telemetry::set_enabled(true);
    let mut rng = Rng::new(5);
    let net = ConvNet::new(
        ConvNetConfig {
            in_channels: 3,
            image_side: 16,
            width: 8,
            depth: 3,
            num_classes: 10,
            norm: true,
        },
        &mut rng,
    );
    let images = Tensor::randn([4, 3, 16, 16], &mut rng);
    let labels = [0usize, 3, 7, 9];
    let (before, tracked_before) = (tape_current_bytes(), tracked());
    reset_tape_peak();

    // An input-gradient pass (frozen parameters, image leaf): the graph
    // is all the caller's, so dropping its handles empties the tape.
    let leaf = Var::leaf(images.clone(), true);
    let loss = weighted_cross_entropy(&net.forward(&leaf, true), &labels, None, Reduction::Sum);
    loss.backward();
    let during = tape_current_bytes();
    assert!(
        during > before + images.heap_bytes(),
        "a ConvNet pass charged {during} bytes over {before}"
    );
    assert!(tape_peak_bytes() >= during);
    assert_eq!(tracked() - tracked_before, during - before);
    drop(loss);
    let leaf_only = tape_current_bytes();
    assert!(before + images.heap_bytes() <= leaf_only && leaf_only < during);
    drop(leaf);
    assert_eq!(tape_current_bytes(), before);
    assert_eq!(tracked(), tracked_before);

    // A model-gradient pass: each parameter keeps its leaf bound (for
    // `Param::grad`) after the caller's handles drop, so those leaves
    // stay charged until the network drops.
    let x = Var::constant(images.clone());
    let loss = weighted_cross_entropy(&net.forward(&x, false), &labels, None, Reduction::Sum);
    loss.backward();
    assert!(tape_peak_bytes() >= tape_current_bytes());
    drop((loss, x));
    let param_bytes: u64 = net.params().iter().map(|p| p.tensor().heap_bytes()).sum();
    assert!(tape_current_bytes() >= before + param_bytes);

    // Reading the gradients through `GradList::from_params` releases every
    // binding, so the tape is empty again once the list drops.
    let x = Var::constant(images.clone());
    let loss = weighted_cross_entropy(&net.forward(&x, false), &labels, None, Reduction::Sum);
    loss.backward();
    let grads = GradList::from_params(&net.params());
    assert_eq!(grads.len(), net.params().len());
    drop((loss, x, grads));
    assert_eq!(tape_current_bytes(), before);
    assert_eq!(tracked(), tracked_before);
    drop(net);
    assert_eq!(tape_current_bytes(), before);
    assert_eq!(tracked(), tracked_before);
    deco_telemetry::set_enabled(false);
}
