//! The process-wide kernel backend selection.
//!
//! The reference backend must stay the out-of-the-box default, and
//! `ACSO_BACKEND` must route every scratch pool built without an explicit
//! override, which is what the CI backend-simd job relies on to flip the
//! whole process. The Q-network-level equivalence tests (grouped inference,
//! batched training and cross-backend tolerance) live in acso-core's
//! `agent::backend_equivalence` unit tests, beside the test-only solo pass
//! they compare against.

use neural::Scratch;

/// A freshly constructed scratch (and therefore every agent built without an
/// explicit override) uses the backend `ACSO_BACKEND` names, falling back to
/// the reference backend when the variable is unset — so golden fixtures
/// keep meaning what they meant before the seam existed, and the CI
/// backend-simd job can flip the whole process with one env var.
#[test]
fn default_backend_honours_environment() {
    let expected =
        std::env::var(neural::backend::BACKEND_ENV).unwrap_or_else(|_| "reference".to_string());
    assert_eq!(Scratch::new().backend().name(), expected);
    assert_eq!(neural::backend::default_backend().name(), expected);
}

#[test]
fn backend_lookup_rejects_unknown_names() {
    let err = neural::backend::backend_by_name("no-such-backend").unwrap_err();
    assert!(
        err.contains("no-such-backend"),
        "error names the culprit: {err}"
    );
}
