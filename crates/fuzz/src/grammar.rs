//! Grammar-aware input generators: *almost-valid* inputs per surface.
//!
//! Where [`crate::mutate::ByteMutator`] is structure-blind, these
//! generators know each format's grammar and aim one step past it: edge
//! lists with 64-bit ids and half-missing tokens, METIS headers whose
//! counts lie, WAL streams with checksummed-but-alien records and torn
//! tails, serve scripts that shadow the real verb grammar, and snapshot
//! headers with surgically corrupted length fields. Almost-valid inputs
//! reach much deeper into a parser than random bytes: they pass the early
//! validation layers and exercise the error paths behind them.
//!
//! Every generator is a pure function of its seed (and base bytes, where
//! it corrupts a valid exemplar), so any finding is reproducible from the
//! `(surface, seed)` pair alone.

use bestk_graph::cast;
use bestk_graph::rng::Xoshiro256;

/// The WAL magic, mirrored from `bestk-delta`'s spec (`BESTKWAL1`); the
/// generator deliberately re-implements the format from its documentation
/// rather than calling the production encoder, so encoder bugs cannot
/// hide from the fuzzer.
const WAL_MAGIC: &[u8] = b"BESTKWAL1";

/// FNV-1a 64-bit, as specified for WAL record checksums.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digit-string pool for numeric token positions: in-range ids, boundary
/// values, overflow values, and outright junk.
fn numeric_token(rng: &mut Xoshiro256) -> String {
    match rng.next_index(10) {
        0..=4 => rng.next_below(32).to_string(),
        5 => (u32::MAX as u64 + rng.next_below(3)).to_string(),
        6 => u64::MAX.to_string(),
        7 => format!("{}9", u64::MAX), // overflows u64 parsing
        8 => format!("-{}", rng.next_below(100)),
        _ => ["zz", "0x10", "1e9", "NaN", "", "１２"][rng.next_index(6)].to_string(),
    }
}

// ------------------------------------------------------------- graph I/O

/// An almost-valid whitespace edge list: mostly `u v` lines, salted with
/// comments, blank lines, missing/extra tokens, and 64-bit ids (the
/// reader relabels sparse ids, so huge ids must parse without huge
/// allocations).
pub fn edge_list(seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut out = String::new();
    let lines = 1 + rng.next_index(40);
    for _ in 0..lines {
        match rng.next_index(8) {
            0 => out.push_str("# comment line\n"),
            1 => out.push('\n'),
            2 => {
                let t = numeric_token(&mut rng);
                out.push_str(&t);
                out.push('\n');
            }
            3 => {
                out.push_str(&format!(
                    "{} {} {}\n",
                    numeric_token(&mut rng),
                    numeric_token(&mut rng),
                    numeric_token(&mut rng)
                ));
            }
            _ => {
                out.push_str(&format!(
                    "{} {}\n",
                    numeric_token(&mut rng),
                    numeric_token(&mut rng)
                ));
            }
        }
    }
    out.into_bytes()
}

/// An almost-valid METIS file: a header whose `n`/`m` may lie (including
/// the hostile billions-of-edges shape), then adjacency lines with
/// 1-indexed, sometimes out-of-range neighbors.
pub fn metis(seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    let n = 1 + rng.next_below(8);
    let mut out = String::new();
    if rng.next_bool(0.2) {
        out.push_str("% metis comment\n");
    }
    // Header: truthful, inflated, hostile, or weighted.
    match rng.next_index(6) {
        0 => out.push_str(&format!("{n} {}\n", rng.next_below(16))),
        1 => out.push_str(&format!("{} {}\n", n * 1000, rng.next_below(16))),
        2 => out.push_str("4000000000 999999999999\n"),
        3 => out.push_str(&format!("{n} {} 011\n", rng.next_below(16))),
        4 => out.push_str(&format!("{n} {} 000\n", rng.next_below(16))),
        _ => out.push_str(&format!(
            "{} {}\n",
            numeric_token(&mut rng),
            numeric_token(&mut rng)
        )),
    }
    let lines = rng.next_index(2 * n as usize + 2);
    for _ in 0..lines {
        let degree = rng.next_index(4);
        let toks: Vec<String> = (0..degree)
            .map(|_| {
                if rng.next_bool(0.8) {
                    (1 + rng.next_below(n + 2)).to_string()
                } else {
                    numeric_token(&mut rng)
                }
            })
            .collect();
        out.push_str(&toks.join(" "));
        out.push('\n');
    }
    out.into_bytes()
}

/// Structured corruption of a valid `BESTKGR1` binary graph: length-field
/// lies in the `n`/`nnz` header, mid-section truncation, trailing bytes,
/// and magic damage.
pub fn binary_graph(base: &[u8], seed: u64) -> Vec<u8> {
    corrupt_framed(base, seed ^ 0xd1b5_4a32_d192_ed03)
}

// ------------------------------------------------------------- snapshots

/// Structured corruption of a valid `BESTKSS2` `.bestk` snapshot: header
/// fields, section-table entries, body bytes, truncation at and off
/// section boundaries, appended trailers.
pub fn snapshot(base: &[u8], seed: u64) -> Vec<u8> {
    corrupt_framed(base, seed ^ 0x94d0_49bb_1331_11eb)
}

/// The shared "almost-valid binary" corruptor: applies 1–3 surgical edits
/// biased toward the header and length fields, where framed formats keep
/// their load-bearing integers.
fn corrupt_framed(base: &[u8], seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut buf = base.to_vec();
    let edits = 1 + rng.next_index(3);
    for _ in 0..edits {
        if buf.is_empty() {
            break;
        }
        match rng.next_index(6) {
            // Header-field lie: write a boundary value into the first 64
            // bytes, 4- or 8-byte aligned like real header fields.
            0 => {
                let header = buf.len().min(64);
                if header >= 8 {
                    let at = (rng.next_index(header - 7) / 4) * 4;
                    let v = [0u64, 1, u32::MAX as u64, u64::MAX, 1 << 40][rng.next_index(5)];
                    if rng.next_bool(0.5) {
                        buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    } else {
                        buf[at..at + 4].copy_from_slice(&v.to_le_bytes()[..4]);
                    }
                }
            }
            // Truncate at an 8-byte boundary (torn section)...
            1 => {
                let cut = (rng.next_index(buf.len()) / 8) * 8;
                buf.truncate(cut);
            }
            // ...or anywhere (torn field).
            2 => {
                let cut = rng.next_index(buf.len());
                buf.truncate(cut);
            }
            // Flip a bit somewhere in the body (checksum must catch it).
            3 => {
                let at = rng.next_index(buf.len());
                buf[at] ^= 1 << rng.next_index(8);
            }
            // Damage the magic itself.
            4 => {
                let at = rng.next_index(buf.len().min(9));
                buf[at] = buf[at].wrapping_add(1);
            }
            // Append trailing bytes (must be rejected, not ignored).
            _ => {
                let extra = 1 + rng.next_index(16);
                for _ in 0..extra {
                    buf.push(cast::low_byte(rng.next_below(256)));
                }
            }
        }
    }
    buf
}

// ------------------------------------------------------------------- WAL

/// An almost-valid `BESTKWAL1` stream: correctly checksummed frames mixed
/// with alien tags, lying length fields, checksum mismatches, and torn
/// tails — the full quarantine-path grammar.
pub fn wal(seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xbf58_476d_1ce4_e5b9);
    let mut out = Vec::new();
    // Usually a correct magic; sometimes damaged or missing.
    match rng.next_index(8) {
        0 => {}
        1 => out.extend_from_slice(b"BESTKWAL2"),
        2 => out.extend_from_slice(&WAL_MAGIC[..rng.next_index(WAL_MAGIC.len())]),
        _ => out.extend_from_slice(WAL_MAGIC),
    }
    let frames = rng.next_index(12);
    for _ in 0..frames {
        // A mostly-valid payload: insert/delete (tag + 2×u32le), commit
        // (tag alone), or an alien tag/length combination.
        let mut payload = Vec::new();
        match rng.next_index(6) {
            0 | 1 => {
                payload.push(0x01);
                payload.extend_from_slice(&cast::u32_from_u64(rng.next_below(64)).to_le_bytes());
                payload.extend_from_slice(&cast::u32_from_u64(rng.next_below(64)).to_le_bytes());
            }
            2 => {
                payload.push(0x02);
                payload.extend_from_slice(&cast::u32_from_u64(rng.next_below(64)).to_le_bytes());
                payload.extend_from_slice(&cast::u32_from_u64(rng.next_below(64)).to_le_bytes());
            }
            3 => payload.push(0x03),
            4 => {
                // Alien tag, plausible length.
                payload.push(0x7f);
                payload.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            _ => {
                // Valid tag, wrong length.
                payload.push(if rng.next_bool(0.5) { 0x01 } else { 0x03 });
                for _ in 0..rng.next_index(4) {
                    payload.push(cast::low_byte(rng.next_below(256)));
                }
            }
        }
        // Frame it: len u32le | payload | fnv1a64(payload) u64le, with the
        // length or checksum sometimes lying.
        let mut len = cast::u32_of(payload.len());
        if rng.next_bool(0.15) {
            len = [0, 1, 10, 0xffff_ffff, len.wrapping_add(1)][rng.next_index(5)];
        }
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&payload);
        let mut sum = fnv1a64(&payload);
        if rng.next_bool(0.15) {
            sum ^= 1 << rng.next_index(64);
        }
        out.extend_from_slice(&sum.to_le_bytes());
    }
    // Torn tail: cut the stream mid-frame.
    if rng.next_bool(0.3) && !out.is_empty() {
        let keep = WAL_MAGIC.len().min(out.len());
        let cut = keep + rng.next_index(out.len() - keep + 1);
        out.truncate(cut);
    }
    out
}

// ----------------------------------------------------------------- serve

const SERVE_VERBS: &[&str] = &[
    "load", "query", "add-edge", "del-edge", "commit", "datasets", "counters", "metrics", "quit",
];
const QUERY_FORMS: &[&str] = &[
    "stats",
    "bestkset ad",
    "bestkset den",
    "bestkset cr",
    "bestkset zz",
    "coreof 5",
    "coreof",
    "bestkset",
    "frobnicate",
];

/// An almost-valid serve script: request lines shadowing the real verb
/// grammar (right verbs, wrong arity; in-range and absurd vertex ids;
/// nonexistent datasets and safe relative paths), plus blank lines,
/// control characters, and the occasional binary garbage line. `quit`
/// appears with low probability so most scripts run to EOF.
pub fn serve_script(seed: u64) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x2b99_2ddf_a232_49d6);
    let mut out: Vec<u8> = Vec::new();
    let lines = 1 + rng.next_index(24);
    for _ in 0..lines {
        let mut line: Vec<u8> = match rng.next_index(12) {
            0 => Vec::new(), // blank
            1 => {
                // Raw binary garbage (lossy UTF-8 on the read path).
                (0..rng.next_index(24))
                    .map(|_| cast::low_byte(rng.next_below(256)))
                    .collect()
            }
            2 => {
                let ds = ["fig2", "nope", "g"][rng.next_index(3)];
                format!(
                    "load {ds} fuzz-missing/{}.bestk{}",
                    rng.next_below(1000),
                    if rng.next_bool(0.3) {
                        " fuzz-missing/src.txt"
                    } else {
                        ""
                    }
                )
                .into_bytes()
            }
            3 => format!(
                "{} fig2 {} {}",
                ["add-edge", "del-edge"][rng.next_index(2)],
                numeric_token(&mut rng),
                numeric_token(&mut rng)
            )
            .into_bytes(),
            4 => format!("commit {}", ["fig2", "nope", ""][rng.next_index(3)]).into_bytes(),
            5 => SERVE_VERBS[rng.next_index(SERVE_VERBS.len())]
                .as_bytes()
                .to_vec(),
            6 => {
                // A verb with trailing junk (arity violations).
                format!(
                    "{} extra junk {}",
                    SERVE_VERBS[rng.next_index(SERVE_VERBS.len())],
                    numeric_token(&mut rng)
                )
                .into_bytes()
            }
            7 if rng.next_bool(0.3) => b"quit".to_vec(),
            _ => format!(
                "query {} {}",
                ["fig2", "nope"][rng.next_index(2)],
                QUERY_FORMS[rng.next_index(QUERY_FORMS.len())]
            )
            .into_bytes(),
        };
        // Occasional intra-line damage: tabs, CR, NULs, a very long token.
        if rng.next_bool(0.2) && !line.is_empty() {
            let at = rng.next_index(line.len());
            line[at] = [b'\t', b'\r', 0, 0xff][rng.next_index(4)];
        }
        if rng.next_bool(0.05) {
            line.extend(std::iter::repeat_n(b'x', 100 + rng.next_index(200)));
        }
        out.extend_from_slice(&line);
        out.push(b'\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for seed in 0..8 {
            assert_eq!(edge_list(seed), edge_list(seed));
            assert_eq!(metis(seed), metis(seed));
            assert_eq!(wal(seed), wal(seed));
            assert_eq!(serve_script(seed), serve_script(seed));
        }
        assert_ne!(wal(1), wal(2));
    }

    #[test]
    fn wal_streams_cover_valid_and_torn_shapes() {
        let mut with_magic = 0;
        let mut torn_or_alien = 0;
        for seed in 0..256 {
            let bytes = wal(seed);
            if bytes.starts_with(WAL_MAGIC) {
                with_magic += 1;
                if bestk_delta::replay_bytes(&bytes)
                    .map(|r| r.torn_tail)
                    .unwrap_or(true)
                {
                    torn_or_alien += 1;
                }
            }
        }
        assert!(with_magic > 128, "{with_magic} streams carried the magic");
        assert!(torn_or_alien > 32, "{torn_or_alien} streams were torn");
    }

    #[test]
    fn serve_scripts_are_line_oriented() {
        for seed in 0..32 {
            let s = serve_script(seed);
            assert!(s.ends_with(b"\n"), "seed {seed}");
        }
    }

    #[test]
    fn corruptor_handles_degenerate_bases() {
        for seed in 0..64 {
            let _ = snapshot(&[], seed);
            let _ = snapshot(&[1, 2, 3], seed);
            let _ = binary_graph(&[0; 7], seed);
        }
    }
}
