//! The `repro ablation` arm under `cargo test`: the design-choice
//! orderings it asserts hold at the master seed, and its checksum does not
//! depend on the worker count.

use roomsense::experiments::{ExperimentCtx, ExperimentReport};
use roomsense_sim::exec::with_thread_override;

#[test]
fn ablation_holds_its_orderings_at_any_thread_count() {
    let ctx = ExperimentCtx::new(20150309);
    let serial = with_thread_override(1, || ctx.ablation());
    serial.assert_invariants();
    let parallel = with_thread_override(4, || ctx.ablation());
    assert_eq!(serial.checksum(), parallel.checksum());
}
