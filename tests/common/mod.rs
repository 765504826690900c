//! Helpers shared by the integration suites.

use bestk_engine::{snapv2, Dataset};

/// Asserts that two built datasets hold the same index. The snapshot
/// bytes pin the graph, the coreness array, and both profiles; the
/// snapshot does not persist the peel order and shells, the Alg. 1
/// ordering and tags, or the core forest, so those are compared on the
/// built artifacts.
pub fn assert_same_index(got: &Dataset, want: &Dataset, context: &str) {
    let bytes = |ds: &Dataset| snapv2::to_bytes(ds).expect("encode snapshot");
    assert_eq!(bytes(got), bytes(want), "{context}: snapshot bytes");
    let (a, b) = (
        got.artifacts().expect("built artifacts"),
        want.artifacts().expect("built artifacts"),
    );
    assert_eq!(a.decomp, b.decomp, "{context}: decomposition");
    assert_eq!(
        (&a.adj, &a.same, &a.plus, &a.high),
        (&b.adj, &b.same, &b.plus, &b.high),
        "{context}: Alg. 1 ordering and tags"
    );
    assert_eq!(a.forest.nodes(), b.forest.nodes(), "{context}: core forest");
    assert_eq!(
        a.set_profile.primaries, b.set_profile.primaries,
        "{context}: set-profile primaries"
    );
    assert_eq!(
        a.core_profile.primaries, b.core_profile.primaries,
        "{context}: core-profile primaries"
    );
}
