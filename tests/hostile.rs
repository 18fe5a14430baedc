//! Hostile input never panics the system. Arbitrary text, and corpus
//! programs under random edits, go through the lexer, the parser, the
//! source lints and the compiler for both word lengths, and whatever
//! compiles through both verifiers and the disassembler: every call
//! returns, and every error names a line of the text (or the one after
//! it). Arbitrary boot images, and compiled corpus programs with bytes
//! mutated, run on a `Cpu` with the translation tier on and off, alike.
//! Hostile assembler text assembles or names the line it refuses, and
//! what it assembles lists as text that assembles back to its bytes.

use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::{Cpu, CpuConfig, WordLength};
use transputer_analysis::verifier::verify_program;
use transputer_analysis::{lint_source, verify_program_cfg};
use transputer_asm::{assemble, disassemble};
use transputer_bench::hostperf::full_image;

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

/// Labels an assembler program defines and jumps to.
const LABELS: [&str; 3] = ["top", "a.1", "end_"];

/// Signs an operand may carry: none, one (with or without a space before
/// its digits), or two, which the assembler refuses.
const SIGNS: [&str; 5] = ["", "", "-", "- ", "- -"];

/// An operand: small, hex of either spelling, or wide: `WIDE`, and one
/// past the largest 64-bit value, whose negation only a second sign
/// brings back into range.
fn operand(rng: &mut StdRng) -> String {
    let sign = SIGNS[rng.gen_range(0..SIGNS.len())];
    let digits = match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..300u32).to_string(),
        1 => format!("#{:X}", rng.gen::<u32>()),
        2 => format!("0x{:x}", rng.gen::<u16>()),
        _ => match rng.gen_range(0..=WIDE.len()) {
            0 => "9223372036854775808".to_string(),
            i => WIDE[i - 1].to_string(),
        },
    };
    sign.to_string() + &digits
}

/// One assembler line: a label, a jump to one, an operation, a direct
/// function with an operand, or (unless `whole`) a data directive or a
/// prefix written out, sometimes with a comment after it.
fn asm_line(rng: &mut StdRng, whole: bool) -> String {
    let label = LABELS[rng.gen_range(0..LABELS.len())];
    let pick = |rng: &mut StdRng, names: [&'static str; 2]| names[rng.gen_range(0..2usize)];
    let line = match rng.gen_range(0..8u32) {
        0 => format!("{label}:"),
        1 => {
            let jump =
                [Direct::Jump, Direct::ConditionalJump, Direct::Call][rng.gen_range(0..3usize)];
            format!(
                "{} @{label}",
                pick(rng, [jump.mnemonic(), jump.full_name()])
            )
        }
        2 if !whole => format!("{} {}", pick(rng, [".byte", ".word"]), operand(rng)),
        2 | 3 => {
            let op = Op::ALL[rng.gen_range(0..Op::ALL.len())];
            pick(rng, [op.mnemonic(), op.full_name()]).to_string()
        }
        _ => {
            let d = Direct::ALL[rng.gen_range(0..Direct::ALL.len())];
            if whole && matches!(d, Direct::Prefix | Direct::NegativePrefix) {
                return asm_line(rng, whole);
            }
            format!(
                "{} {}",
                pick(rng, [d.mnemonic(), d.full_name()]),
                operand(rng)
            )
        }
    };
    match rng.gen_range(0..8u32) {
        0 => line + " -- note",
        1 => line + " ; note",
        _ => line,
    }
}

/// `assemble` returns on `text`, and an error names one of its lines or
/// the one after. A program of `whole` instructions lists as text that
/// assembles back to its bytes.
fn assembles(text: &str, whole: bool) -> Result<(), TestCaseError> {
    let last = text.lines().count() as u32 + 1;
    match assemble(text) {
        Err(e) => prop_assert!((1..=last).contains(&e.line), "{e}"),
        Ok(code) if whole => {
            let listing: String = disassemble(&code)
                .iter()
                .map(|d| format!("{d}\n"))
                .collect();
            prop_assert_eq!(assemble(&listing), Ok(code), "{}", listing);
        }
        Ok(_) => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// One case in four is up to 200 arbitrary bytes read as lossy
    /// UTF-8, one up to 12 hostile lines, and half a program of up to 12
    /// whole instructions whose jumps all have a label to land on. One
    /// operand in a hundred is `- -9223372036854775808`, whose two signs
    /// once overflowed the negation, and 3 in 20 lie past the word
    /// whatever their sign. Over 200 000 cases of this draw, a third of the
    /// whole programs (one in six of all cases) assemble and round-trip.
    #[test]
    fn hostile_assembler_text_assembles_or_names_its_line(case in (any::<u64>(), 0u32..4)) {
        let (seed, kind) = case;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines: Vec<String> = Vec::new();
        let text = if kind == 0 {
            let bytes: Vec<u8> = (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect();
            String::from_utf8_lossy(&bytes).into_owned()
        } else {
            let whole = kind >= 2;
            for _ in 0..rng.gen_range(1..13u32) {
                lines.push(asm_line(&mut rng, whole));
            }
            for label in LABELS {
                if whole && !lines.iter().any(|line| line.starts_with(&format!("{label}:"))) {
                    let at = rng.gen_range(0..=lines.len());
                    lines.insert(at, format!("{label}:"));
                }
            }
            lines.join("\n")
        };
        assembles(&text, kind >= 2)?;
    }
}

/// The corpus compiled for the 32-bit part.
fn corpus_images() -> &'static [Vec<u8>] {
    static IMAGES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let compile = |source| occam::compile(source).expect("corpus compiles").code;
        let corpus = transputer_bench::corpus::CORPUS.iter();
        corpus.map(|item| compile(item.source)).collect()
    })
}

/// Append a store of `value` to the word, or the byte, `offset` bytes
/// above MostNeg.
fn store(code: &mut Vec<u8>, value: i64, offset: u32, byte: bool) {
    code.extend(encode(Direct::LoadConstant, value));
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::LoadNonLocalPointer, i64::from(offset / 4)));
    if byte {
        code.extend(encode(Direct::AddConstant, i64::from(offset % 4)));
        code.extend(encode_op(Op::StoreByte));
    } else {
        code.extend(encode(Direct::StoreNonLocal, 0));
    }
}

/// One boot image in four is up to 255 arbitrary bytes and one a corpus
/// program with up to three bytes replaced. The other half is mostly
/// stores anywhere in the 64 KB memory, the gap between code and
/// workspaces included (a few land past its end), with the workspace
/// moved down into the gap and arbitrary bytes between them: uniform
/// bytes alone nearly always fault within a few cycles.
fn boot_image(rng: &mut StdRng) -> Vec<u8> {
    match rng.gen_range(0..4u32) {
        0 => (0..rng.gen_range(1..256usize)).map(|_| rng.gen()).collect(),
        1 => {
            let images = corpus_images();
            let mut image = images[rng.gen_range(0..images.len())].clone();
            for _ in 0..rng.gen_range(1..4u32) {
                let at = rng.gen_range(0..image.len());
                image[at] = rng.gen();
            }
            image
        }
        _ => {
            let mut code = Vec::new();
            for _ in 0..rng.gen_range(1..24u32) {
                match rng.gen_range(0..8u32) {
                    0 => code.extend((0..rng.gen_range(1..4u32)).map(|_| rng.gen::<u8>())),
                    1 => code.extend(encode(Direct::AdjustWorkspace, -rng.gen_range(0..8192i64))),
                    2 => code.extend(encode(Direct::StoreLocal, rng.gen_range(0..64i64))),
                    _ => {
                        let offset = rng.gen_range(0..65536 + 64u32);
                        store(&mut code, rng.gen::<i32>().into(), offset, rng.gen());
                    }
                }
            }
            if rng.gen() {
                code.extend(encode_op(Op::HaltSimulation));
            }
            code
        }
    }
}

/// Neither run of a hostile boot image panics, and the translation tier
/// (translating every block on first arrival) changes nothing: the same
/// outcome, cycle count, simulated statistics and memory image as the
/// byte path. Writes into the untouched middle of memory must be among
/// what is tested, so the weighting is checked too.
#[test]
fn hostile_boot_images_run_alike_with_translation_on_and_off() {
    const CASES: usize = 1500;
    let mut rng = StdRng::seed_from_u64(1985);
    let (mut gap_written, mut long_runs) = (0, 0);
    for case in 0..CASES {
        let image = boot_image(&mut rng);
        let run = |translate| {
            let config = CpuConfig::t424().with_translate(translate);
            let mut cpu = Cpu::new(config.with_translate_threshold(1));
            let outcome = cpu.load_boot_program(&image).map(|()| cpu.run(20_000));
            (format!("{outcome:?}"), cpu)
        };
        let ((outcome, on), (off_outcome, off)) = (run(true), run(false));
        let case = format!("case {case}, image {image:02x?}");
        assert_eq!(outcome, off_outcome, "{case}: outcome");
        assert_eq!(on.cycles(), off.cycles(), "{case}: cycles");
        assert_eq!(
            on.stats().simulated(),
            off.stats().simulated(),
            "{case}: stats"
        );
        assert!(full_image(&on) == full_image(&off), "{case}: memory images");
        // Loading and the boot workspace materialise one page each.
        gap_written += usize::from(on.memory().resident_bytes() > 2 * 1024);
        long_runs += usize::from(on.cycles() > 100);
    }
    assert!(
        gap_written > CASES / 5 && long_runs > CASES / 5,
        "{gap_written} of {CASES} images wrote the gap, {long_runs} ran over 100 cycles"
    );
}
