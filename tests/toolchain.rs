//! Toolchain-level tests of the static analysis subsystem: the whole
//! bench corpus passes both the occam channel-usage lint and the I1
//! bytecode verifier; disassembled corpus programs re-assemble to
//! identical bytes; and hand-built negative fixtures are rejected with
//! diagnostics that carry a position.

use transputer::instr::{encode, Direct};
use transputer::WordLength;
use transputer_analysis::verifier::{verify_bytecode, verify_program, CodeShape};
use transputer_analysis::{lint_source, verify_program_cfg, Severity, Span};
use transputer_apps::dbsearch::{
    array_sources, hypercube_sources, routed_sources, DbSearchConfig, HypercubeConfig,
};
use transputer_asm::{assemble, disassemble};
use transputer_bench::corpus::CORPUS;

/// Every corpus program passes the channel-usage lint and the bytecode
/// verifier with no errors — the acceptance gate for the analysis layer.
#[test]
fn corpus_passes_lint_and_verifier() {
    for item in CORPUS {
        let lint = lint_source(item.source);
        let lint_errors: Vec<_> = lint.iter().filter(|d| d.is_error()).collect();
        assert!(
            lint_errors.is_empty(),
            "{}: lint errors: {lint_errors:?}",
            item.name
        );

        let program = occam::compile(item.source)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", item.name));
        let diags = verify_program(&program);
        let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
        assert!(
            errors.is_empty(),
            "{}: verifier errors: {errors:?}",
            item.name
        );
    }
}

/// Disassembling a corpus program and re-assembling the text produces
/// the original bytes: the compiler emits only canonical encodings, the
/// disassembler prints every operand in a form the assembler reads
/// back, and offsets are preserved because relaxation re-derives the
/// same minimal prefix chains.
#[test]
fn corpus_disassembly_round_trips() {
    for item in CORPUS {
        let program = occam::compile(item.source)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", item.name));
        let text: String = disassemble(&program.code)
            .iter()
            .map(|d| format!("{d}\n"))
            .collect();
        let rebuilt = assemble(&text)
            .unwrap_or_else(|e| panic!("{}: re-assembly failed: {e}\n{text}", item.name));
        assert_eq!(
            rebuilt, program.code,
            "{}: round-trip changed the bytes\n{text}",
            item.name
        );
    }
}

/// Four `ldc` in a row must overflow the three-register evaluation
/// stack; the verifier anchors the error at the fourth instruction.
#[test]
fn verifier_rejects_stack_overflow() {
    let code = [0x40, 0x41, 0x42, 0x43]; // ldc 0; ldc 1; ldc 2; ldc 3
    let diags = verify_bytecode(&code, None);
    let err = diags
        .iter()
        .find(|d| d.code == "stack-overflow")
        .expect("stack overflow reported");
    assert_eq!(err.severity, Severity::Error);
    assert_eq!(err.span, Span::code(3, 1));
}

/// A jump landing inside a prefix chain is not an instruction boundary.
#[test]
fn verifier_rejects_mid_instruction_jump() {
    let mut code = encode(Direct::Jump, 1); // lands one byte into the ldc
    code.extend(encode(Direct::LoadConstant, 0x754)); // 3-byte prefix chain
    let diags = verify_bytecode(&code, None);
    let err = diags
        .iter()
        .find(|d| d.code == "jump-mid-instruction")
        .expect("mid-instruction jump reported");
    assert!(err.is_error());
    assert_eq!(err.span.code_offset(), Some(0));
}

/// A store outside the codegen-allocated workspace is caught when the
/// verifier knows the frame shape.
#[test]
fn verifier_rejects_out_of_bounds_workspace_offset() {
    let mut code = encode(Direct::LoadConstant, 7);
    code.extend(encode(Direct::StoreLocal, 9)); // frame only has 2 words
    let shape = CodeShape {
        locals: 2,
        depth: 0,
    };
    let diags = verify_bytecode(&code, Some(&shape));
    let err = diags
        .iter()
        .find(|d| d.code == "workspace-oob")
        .expect("workspace bounds violation reported");
    assert!(err.is_error());
    assert_eq!(err.span.code_offset(), Some(code.len() as u32 - 1));
}

/// Two PAR branches outputting on the same channel violate occam's
/// point-to-point rule; the diagnostic carries the second writer's
/// source position.
#[test]
fn lint_rejects_two_writer_channel() {
    let diags = lint_source(
        "CHAN c:\n\
         VAR x:\n\
         PAR\n\
         \x20 c ! 1\n\
         \x20 c ! 2\n\
         \x20 c ? x",
    );
    let err = diags
        .iter()
        .find(|d| d.code == "par-chan-output")
        .expect("two-writer conflict reported");
    assert!(err.is_error());
    assert_eq!(err.span, Span::at(5, 3));
}

/// A program nested `levels` deep, as `occam::parser::MAX_NESTING`
/// counts: the outer process and the innermost assignment's value are
/// two levels, and each `construct` wrapped around the assignment (with
/// its guard, for `IF` and `ALT`) one more — or, for `(` and `+`, each
/// pair of parentheses around its value, or each operator in it.
fn nested(construct: &str, levels: usize) -> String {
    let n = levels - 2;
    match construct {
        "(" => return format!("VAR x:\nx := {}1{}\n", "(".repeat(n), ")".repeat(n)),
        "+" => return format!("VAR x:\nx := 1{}\n", " + 1".repeat(n)),
        _ => {}
    }
    let mut source = String::from("VAR x:\n");
    let mut indent = 0;
    for _ in 0..n {
        source += &format!("{}{construct}\n", " ".repeat(indent));
        indent += 2;
        let guard = match construct {
            "IF" => "TRUE",
            "ALT" => "TRUE & SKIP",
            _ => continue,
        };
        source += &format!("{}{guard}\n", " ".repeat(indent));
        indent += 2;
    }
    source + &format!("{}x := 1\n", " ".repeat(indent))
}

/// Nesting is bounded by one limit, not by the stack: a program nested
/// exactly at it lints, compiles and verifies (on this test's 2 MiB
/// thread, in a debug build), and one level deeper is a compile error
/// naming the line, for processes and expressions alike.
#[test]
fn nesting_beyond_the_limit_is_a_compile_error() {
    let limit = occam::parser::MAX_NESTING;
    for construct in ["(", "+", "SEQ", "PAR", "WHILE FALSE", "IF", "ALT"] {
        let at = nested(construct, limit);
        let lint: Vec<_> = lint_source(&at)
            .into_iter()
            .filter(|d| d.is_error())
            .collect();
        assert!(lint.is_empty(), "{construct} at the limit: {lint:?}");
        let program =
            occam::compile(&at).unwrap_or_else(|e| panic!("{construct} at the limit: {e}"));
        for diags in [verify_program(&program), verify_program_cfg(&program)] {
            assert!(
                !diags.iter().any(|d| d.is_error()),
                "{construct}: {diags:?}"
            );
        }

        let deeper = nested(construct, limit + 1);
        let err = occam::compile(&deeper).expect_err(construct);
        assert!(err.message.contains("levels deep"), "{construct}: {err}");
        assert_eq!(
            err.line,
            deeper.lines().count() as u32,
            "{construct}: {err}"
        );
        let lint = lint_source(&deeper);
        assert!(lint.iter().any(|d| d.is_error()), "{construct}: {lint:?}");
    }
}

/// The lexer names the character it rejects, not its first byte.
#[test]
fn lexer_names_the_character_it_rejects() {
    let err = occam::compile("VAR x:\nx := é\n").expect_err("é is not occam");
    assert!(err.message.contains("`é`"), "{err}");
}

/// The front end's output is pinned: an FNV-1a fingerprint of the
/// `{:?}` text of every token stream and syntax tree it makes of the
/// corpus and of every source the three search machines generate. A
/// change to the lexer or the parser that moves one token, position or
/// tree node moves a number.
#[test]
fn front_end_output_is_pinned() {
    fn fnv1a(hash: &mut u64, text: &str) {
        for byte in text.bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut sources: Vec<String> = CORPUS.iter().map(|item| item.source.to_string()).collect();
    let generated = array_sources(&DbSearchConfig::board128())
        .into_iter()
        .chain(hypercube_sources(&HypercubeConfig::hypercube256()))
        .chain(routed_sources(&DbSearchConfig::figure8()));
    sources.extend(generated.map(|(_, source)| source));
    let (mut tokens, mut trees) = (0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for source in &sources {
        fnv1a(&mut tokens, &format!("{:?}", occam::lexer::lex(source)));
        fnv1a(&mut trees, &format!("{:?}", occam::parse(source)));
    }
    assert_eq!(
        (sources.len(), tokens, trees),
        (223, 0x59e3_4783_b17d_4ffd, 0x4486_d944_0b80_bf17)
    );
}

/// A declaration or a constant the target cannot hold is a compile
/// error naming its line: never an abort, an overflow panic, a
/// truncated frame or a silently truncated value.
#[test]
fn oversized_declarations_and_wide_constants_are_compile_errors() {
    let max = "9223372036854775807";
    for (source, word_length, message) in [
        (
            "CHAN c[2147483648]:\nSKIP\n",
            WordLength::Bits32,
            "positive size",
        ),
        (
            "CHAN c[3000000]:\nSKIP\n",
            WordLength::Bits32,
            "at most 256",
        ),
        (
            &format!("VAR a[{max}], b[{max}]:\nSKIP\n"),
            WordLength::Bits32,
            "32-bit word holds",
        ),
        (
            "VAR a[1073741823], b[8]:\nSKIP\n",
            WordLength::Bits32,
            "address space",
        ),
        ("VAR a[32767]:\nSKIP\n", WordLength::Bits16, "address space"),
        (
            &format!("PAR w = [{max} FOR 4]\n  SKIP\n"),
            WordLength::Bits32,
            "32-bit word holds",
        ),
        (
            "PAR w = [2147483647 FOR 2]\n  SKIP\n",
            WordLength::Bits32,
            "leave the word",
        ),
        (
            "VAR x:\nSEQ\n  x := 4294967296\n",
            WordLength::Bits32,
            "32-bit word",
        ),
        (
            "VAR x:\nSEQ\n  x := 70000\n",
            WordLength::Bits16,
            "16-bit word",
        ),
        (
            "DEF n = 1 << 70:\nSKIP\n",
            WordLength::Bits32,
            "compile-time constant",
        ),
    ] {
        let options = occam::Options {
            word_length,
            ..occam::Options::default()
        };
        let err = occam::compile_with(source, options).expect_err(source);
        assert!(err.message.contains(message), "{source}: {err}");
        let line = if source.contains("x :=") { 3 } else { 1 };
        assert_eq!(err.line, line, "{source}: {err}");
    }
}

/// A literal in the word's unsigned upper half is the bit pattern it
/// spells, and a constant expression whose value leaves the word is not
/// folded: the machine's checked arithmetic decides it.
#[test]
fn constants_are_target_words() {
    let code = |source: &str| occam::compile(source).expect(source).code;
    // `#FFFFFFFF` is -1: `nfix 0; ldc 15`, not an eight-byte chain.
    assert_eq!(code("VAR x:\nx := #FFFFFFFF\n")[..2], [0x60, 0x4F]);
    let product = occam::compile("VAR x:\nx := 65536 * 65536\n").expect("compiles");
    let listing: Vec<String> = disassemble(&product.code)
        .iter()
        .map(ToString::to_string)
        .collect();
    assert!(listing.contains(&"mul".to_string()), "{listing:?}");
    let diags = verify_program(&product);
    assert!(
        diags.iter().all(|d| d.code != "canonical-prefix"),
        "{diags:?}"
    );
    // Shifts are unchecked: they fold on the word's bit pattern, so a
    // DEF, a vector size or a replicator may shift into or out of the
    // sign bit.
    let compile = |source: &str, word_length| {
        let options = occam::Options {
            word_length,
            ..occam::Options::default()
        };
        occam::compile_with(source, options).expect(source).code
    };
    for (shift, word_length, value) in [
        ("#FFFF >> 8", WordLength::Bits16, "255"),
        ("#4000 << 1", WordLength::Bits16, "#8000"),
        ("#FFFF << 16", WordLength::Bits16, "0"),
        ("1 << 31", WordLength::Bits32, "#80000000"),
        ("#FF000000 >> 24", WordLength::Bits32, "255"),
        ("-1 >> 28", WordLength::Bits32, "15"),
    ] {
        assert_eq!(
            compile(&format!("DEF m = {shift}:\nVAR x:\nx := m\n"), word_length),
            compile(&format!("VAR x:\nx := {value}\n"), word_length),
            "{shift} under {word_length:?}"
        );
    }
    compile(
        "DEF m = #FFFF >> 8:\nVAR v[m]:\nPAR i = [0 FOR #FFFF >> 14]\n  v[i] := i\n",
        WordLength::Bits16,
    );
}
