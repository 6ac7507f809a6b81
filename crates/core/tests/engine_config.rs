//! The `EngineConfig` consolidation contract: one engine-selection config
//! pushed through every front door of the crate — one-shot [`Permuter`],
//! resident [`PermutationSession`], the multi-tenant service fleet
//! ([`ServiceConfig`]) and the raw layer with default [`PermuteOptions`] —
//! round-trips unchanged and produces the identical permutation on each
//! surface.

use cgp_cgm::CgmMachine;
use cgp_core::service::{PermutationService, ServiceConfig};
use cgp_core::{EngineConfig, PermuteOptions, Permuter};

fn engine() -> EngineConfig {
    EngineConfig::new(3).seed(4242)
}

#[test]
fn every_surface_round_trips_the_same_engine_config() {
    let engine = engine();

    // Surface 1: the one-shot Permuter embeds the config verbatim…
    let permuter = Permuter::from_engine(engine);
    assert_eq!(permuter.engine(), engine);
    // …and so does the equivalent hand-built setter chain.
    let by_setters = Permuter::new(3).seed(4242);
    assert_eq!(by_setters.engine(), engine);

    // Surface 2: a session opened from the permuter carries it on.
    let mut session = permuter.session::<u64>();
    assert_eq!(session.engine(), engine);
    assert_eq!(session.seed(), engine.seed);
    assert_eq!(session.procs(), engine.procs);

    // Surface 3: the service fleet embeds it as a public field.
    let config = ServiceConfig::from_engine(engine).machines(1);
    assert_eq!(config.engine, engine);
    assert_eq!(permuter.service_config().engine, engine);

    // Per-job options carry nothing machine-shaped that could disagree
    // with the fleet they run on.
    let options = PermuteOptions::default();

    // The point of the consolidation: all four surfaces produce the
    // byte-identical permutation for the one config.
    let data: Vec<u64> = (0..900).collect();
    let reference = permuter.permute(data.clone()).0;

    let (via_session, _) = session.permute(data.clone());
    assert_eq!(via_session, reference, "session diverged from one-shot");

    let service: PermutationService<u64> = PermutationService::new(config, options.clone());
    let (via_service, _) = service.handle().permute(data.clone()).unwrap();
    assert_eq!(via_service, reference, "service diverged from one-shot");
    service.shutdown();

    // The raw layer: machine half + per-job half, assembled by hand.
    let machine = CgmMachine::new(engine.cgm_config());
    let (via_raw, _) = cgp_core::permute_vec(&machine, data, &options);
    assert_eq!(via_raw, reference, "raw permute_vec diverged from one-shot");
}
