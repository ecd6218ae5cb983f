//! The two JSON sources agree: for any text, reading a typed value straight
//! from it (`serde_json::from_str::<T>`) and reading it out of the text's
//! `Value` tree (`from_value` of `from_str::<Value>`) give the same value
//! or both refuse, with the same message. Values compare by their `{:?}`,
//! which tells every `f64` bit pattern JSON can produce apart.

use std::fmt::Debug;

use mcm_core::{Experiment, PointRecord};
use mcm_sweep::SweepSpec;
use proptest::prelude::*;
use serde::Deserialize;

fn agree<T: Deserialize + Debug>(text: &str) -> Result<(), TestCaseError> {
    let direct = serde_json::from_str::<T>(text).map(|v| format!("{v:?}"));
    let via_tree = serde_json::from_str::<serde::Value>(text)
        .and_then(serde_json::from_value::<T>)
        .map(|v| format!("{v:?}"));
    let show = |r: &Result<String, serde::Error>| match r {
        Ok(v) => v.clone(),
        Err(e) => format!("refused: {e}"),
    };
    prop_assert_eq!(show(&direct), show(&via_tree), "text {:?}", text);
    Ok(())
}

fn all_agree(text: &str) -> Result<(), TestCaseError> {
    agree::<PointRecord>(text)?;
    agree::<Experiment>(text)?;
    agree::<SweepSpec>(text)?;
    agree::<Vec<Option<u32>>>(text)?;
    agree::<serde::Value>(text)
}

const RECORDS: [&str; 3] = [
    include_str!("reader_corpus/record_feasible.json"),
    include_str!("reader_corpus/config_multi_tenant.json"),
    include_str!("reader_corpus/sweep_spec.json"),
];

/// Bytes and characters a mutation writes: JSON punctuation, digits,
/// keyword letters, escapes, whitespace and multi-byte characters.
const PIECES: [&str; 24] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    " ",
    "\n",
    "0",
    "7",
    "-",
    ".",
    "e",
    "null",
    "true",
    "u",
    "\\u00e9",
    "\\ud83d\\ude00",
    "é",
    "😀",
    "\"a\":1,",
    "1e400",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary strings over JSON's pieces.
    #[test]
    fn arbitrary_text_reads_alike(picks in prop::collection::vec(0usize..PIECES.len(), 0..40)) {
        let text: String = picks.iter().map(|&i| PIECES[i]).collect();
        all_agree(&text)?;
    }

    /// Records with up to four pieces spliced in, each replacing one
    /// character at a random place.
    #[test]
    fn mutated_records_read_alike(
        doc in 0usize..RECORDS.len(),
        edits in prop::collection::vec((0usize..4096, 0usize..PIECES.len(), 0usize..2), 1..5),
    ) {
        let mut text = RECORDS[doc].to_string();
        for (at, piece, replace) in edits {
            let mut at = at % (text.len() + 1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            if replace == 1 && at < text.len() {
                let width = text[at..].chars().next().map_or(0, char::len_utf8);
                text.replace_range(at..at + width, PIECES[piece]);
            } else {
                text.insert_str(at, PIECES[piece]);
            }
        }
        all_agree(&text)?;
    }
}
