//! The wire reference covers the whole protocol: every request type in
//! `Request::TYPES` has its own `### <type> — …` section in
//! `docs/PROTOCOL.md`.

use chain_nn_serve::protocol::Request;

const PROTOCOL: &str = include_str!("../../../docs/PROTOCOL.md");

#[test]
fn every_request_type_has_a_section_in_the_protocol_reference() {
    let missing: Vec<&str> = Request::TYPES
        .into_iter()
        .filter(|kind| {
            let heading = format!("### {kind} — ");
            !PROTOCOL.lines().any(|line| line.starts_with(&heading))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "docs/PROTOCOL.md has no `### <type> — ` section for {missing:?}"
    );
}
