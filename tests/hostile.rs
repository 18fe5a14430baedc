//! Hostile text never panics the toolchain: arbitrary bytes, and corpus
//! programs under random edits, go through the lexer, the parser, the
//! source lints and the compiler for both word lengths, and whatever
//! compiles through both verifiers and the disassembler. Every call
//! returns; every error names a line of the text (or the one after it).

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transputer::WordLength;
use transputer_analysis::verifier::verify_program;
use transputer_analysis::{lint_source, verify_program_cfg};
use transputer_asm::disassemble;

/// What an edit may put in place of a number: the widest literal the
/// lexer reads, one past a 32-bit word, and the two halves' edges.
const WIDE: [&str; 4] = [
    "9223372036854775807",
    "4294967296",
    "#FFFFFFFF",
    "2147483648",
];

/// The corpus and every program the experiments generate.
fn programs() -> &'static [String] {
    static PROGRAMS: OnceLock<Vec<String>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        let corpus = transputer_bench::corpus::CORPUS.iter();
        let generated = transputer_bench::expimages::experiment_sources();
        corpus
            .map(|item| item.source.to_string())
            .chain(generated.into_iter().map(|(_, source)| source))
            .collect()
    })
}

/// `source` under `edits` random edits: a flipped bit, an inserted or a
/// deleted byte, a line indented two more spaces, a number made wide.
fn edited(source: &str, rng: &mut StdRng, edits: u32) -> String {
    let mut text = source.as_bytes().to_vec();
    for _ in 0..edits {
        let at = rng.gen_range(0..=text.len());
        match rng.gen_range(0..8u32) {
            0 if at < text.len() => text[at] ^= 1 << rng.gen_range(0..8u32),
            1 => text.insert(at, rng.gen_range(b' '..=b'~')),
            2 if at < text.len() => drop(text.remove(at)),
            3 => {
                let line = text[..at].iter().rposition(|&b| b == b'\n');
                let line = line.map_or(0, |nl| nl + 1);
                text.splice(line..line, *b"  ");
            }
            _ => {
                let digits: Vec<usize> = (0..text.len())
                    .filter(|&i| text[i].is_ascii_digit())
                    .collect();
                if digits.is_empty() {
                    continue;
                }
                let mut start = digits[rng.gen_range(0..digits.len())];
                let mut end = start;
                while start > 0 && text[start - 1].is_ascii_digit() {
                    start -= 1;
                }
                while end < text.len() && text[end].is_ascii_digit() {
                    end += 1;
                }
                let wide = WIDE[rng.gen_range(0..WIDE.len())];
                text.splice(start..end, wide.bytes());
            }
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

/// Every stage over `text`.
fn survives(text: &str) -> Result<(), TestCaseError> {
    let last = text.lines().count() as u32 + 1;
    let named = |e: &occam::CompileError| (1..=last).contains(&e.line);
    if let Err(e) = occam::lexer::lex(text) {
        prop_assert!(named(&e), "lex: {e}");
    }
    if let Err(e) = occam::parse(text) {
        prop_assert!(named(&e), "parse: {e}");
    }
    lint_source(text);
    for word_length in [WordLength::Bits32, WordLength::Bits16] {
        let options = occam::Options {
            word_length,
            ..occam::Options::default()
        };
        match occam::compile_with(text, options) {
            Err(e) => prop_assert!(named(&e), "{word_length:?}: {e}"),
            Ok(program) => {
                let mut diags = verify_program(&program);
                diags.extend(verify_program_cfg(&program));
                // The compiler picks every prefix chain itself.
                let long = diags.iter().find(|d| d.code == "canonical-prefix");
                prop_assert!(long.is_none(), "{word_length:?}: {long:?}");
                disassemble(&program.code);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// One case in four is up to 200 arbitrary bytes read as lossy
    /// UTF-8; the rest are a corpus or generated program under one to
    /// three edits.
    #[test]
    fn hostile_text_never_panics_the_toolchain(case in (any::<u64>(), 0u32..4)) {
        let (seed, edits) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let text = if edits == 0 {
            let bytes: Vec<u8> = (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        } else {
            let base = &programs()[rng.gen_range(0..programs().len())];
            edited(base, &mut rng, edits)
        };
        survives(&text)?;
    }
}
