//! Reader parity over a recorded corpus.
//!
//! Each document under `tests/reader_corpus/` was written by `mcm` (a
//! cache record of each kind, a checkpoint header and entry line, a shard
//! document, two `config-dump` outputs and a sweep spec). Every document
//! gets the same seeded single-byte mutations, each is read by the reader
//! that reads such a document in the program, and every outcome (refused,
//! or the value's `{:?}`) is folded into a digest. The digests and the
//! refusal counts were recorded with the JSON reader that parsed text into
//! a `Value` tree before reading the typed value, so a change to the
//! reader that reads any of these texts differently shows here.

use std::fmt::Debug;

use mcm_core::{Experiment, PointRecord};

use crate::checkpoint::{Entry, Header};
use crate::shard::ShardDoc;
use crate::spec::SweepSpec;

/// Mutations per document.
const MUTATIONS: usize = 500;

/// Bytes a mutation writes: JSON punctuation, digits, the letters of the
/// keywords and escapes, whitespace and one letter JSON never uses.
const ALPHABET: &[u8] = b"{}[]:,\"\\ \t\n0123456789.-+eEtrufalsnx";

/// xorshift64: the mutation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The mutations of `doc` (seeded by `seed`), each one byte replaced,
/// deleted or inserted. Every document and every alphabet byte is ASCII,
/// so each mutation is still UTF-8.
fn mutations(doc: &str, seed: u64) -> Vec<String> {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x0100_0000_01b3));
    (0..MUTATIONS)
        .map(|_| {
            let mut bytes = doc.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            let byte = ALPHABET[rng.below(ALPHABET.len())];
            match rng.below(3) {
                0 => bytes[at] = byte,
                1 => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, byte),
            }
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        })
        .collect()
}

fn outcome<T: Debug, E>(read: Result<T, E>) -> String {
    match read {
        Ok(v) => format!("{v:?}"),
        Err(_) => "refused".to_string(),
    }
}

type Reader = fn(&str) -> String;

/// Each recorded document and the program's reader for it.
const CORPUS: [(&str, &str, Reader); 8] = [
    (
        "record_feasible",
        include_str!("../tests/reader_corpus/record_feasible.json"),
        |t| outcome(serde_json::from_str::<PointRecord>(t)),
    ),
    (
        "record_infeasible",
        include_str!("../tests/reader_corpus/record_infeasible.json"),
        |t| outcome(serde_json::from_str::<PointRecord>(t)),
    ),
    (
        "checkpoint_header",
        include_str!("../tests/reader_corpus/checkpoint_header.jsonl"),
        |t| outcome(Header::from_json(t)),
    ),
    (
        "checkpoint_entry",
        include_str!("../tests/reader_corpus/checkpoint_entry.jsonl"),
        |t| outcome(serde_json::from_str::<Entry>(t)),
    ),
    (
        "shard",
        include_str!("../tests/reader_corpus/shard.json"),
        |t| outcome(ShardDoc::parse("shard.json", t)),
    ),
    (
        "config_default",
        include_str!("../tests/reader_corpus/config_default.json"),
        |t| outcome(serde_json::from_str::<Experiment>(t)),
    ),
    (
        "config_multi_tenant",
        include_str!("../tests/reader_corpus/config_multi_tenant.json"),
        |t| outcome(serde_json::from_str::<Experiment>(t)),
    ),
    (
        "sweep_spec",
        include_str!("../tests/reader_corpus/sweep_spec.json"),
        |t| outcome(serde_json::from_str::<SweepSpec>(t)),
    ),
];

/// Per document: (name, mutations refused, FNV-1a 64 of every outcome in
/// order), as the tree-based reader gave them.
const RECORDED: [(&str, usize, u64); 8] = [
    ("record_feasible", 377, 0x7f269da7019f2f3a),
    ("record_infeasible", 389, 0x125fa68d825e0809),
    ("checkpoint_header", 450, 0x590a0b07743059ea),
    ("checkpoint_entry", 365, 0x06d8f5728c0f52fd),
    ("shard", 369, 0x267da26cd5f57fc6),
    ("config_default", 388, 0xa95308bebbb01c2f),
    ("config_multi_tenant", 394, 0xe630a10304c98889),
    ("sweep_spec", 373, 0x23ec9a54ce7fcc90),
];

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn mutated_documents_read_as_recorded() {
    let mut table = String::new();
    let mut got = Vec::new();
    for (seed, (name, doc, read)) in CORPUS.iter().enumerate() {
        // The unmutated document reads.
        assert_ne!(read(doc), "refused", "{name} must read");
        let mut refused = 0;
        let mut digest = 0xcbf2_9ce4_8422_2325;
        for text in mutations(doc, seed as u64) {
            let out = read(&text);
            refused += usize::from(out == "refused");
            digest = fnv1a(fnv1a(digest, out.as_bytes()), b"\n");
        }
        table.push_str(&format!("    ({name:?}, {refused}, {digest:#018x}),\n"));
        got.push((*name, refused, digest));
    }
    assert_eq!(
        got, RECORDED,
        "outcomes differ; this reader's table:\n{table}"
    );
}
