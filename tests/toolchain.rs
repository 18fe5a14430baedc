//! Toolchain-level tests of the static analysis subsystem: the whole
//! bench corpus passes both the occam channel-usage lint and the I1
//! bytecode verifier; disassembled corpus programs re-assemble to
//! identical bytes; and hand-built negative fixtures are rejected with
//! diagnostics that carry a position.

use transputer::instr::{encode, Direct};
use transputer::WordLength;
use transputer_analysis::verifier::{verify_bytecode, verify_program, CodeShape};
use transputer_analysis::{lint_occam, lint_source, verify_program_cfg, Severity, Span};
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

/// `lint_occam` reports source that does not parse once, as a `parse`
/// error at the failing line, and compiles nothing; a program the
/// compiler refuses is a `compile` error at its own line too.
#[test]
fn lint_occam_reports_each_failure_once_at_its_line() {
    let unparsable = "VAR x:\nSEQ\n  x := 1\n  x := ) 2\n  SKIP\n";
    let failed = occam::parse(unparsable).expect_err("does not parse").line;
    let (diags, program) = lint_occam(unparsable);
    assert!(program.is_none());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "parse");
    assert_eq!((diags[0].span, failed), (Span::line(failed), 4));

    let (diags, program) = lint_occam("VAR x:\nSEQ\n  x := 1\n  y := 2\n");
    assert!(program.is_none());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "compile");
    assert_eq!(diags[0].span, Span::line(4));
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
fn fnv1a(hash: &mut u64, text: &str) {
    for byte in text.bytes() {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// The FNV-1a offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The 223 sources the toolchain benchmark compiles: the corpus, then
/// the board, hypercube and routed dbsearch programs.
fn front_end_sources() -> Vec<String> {
    let mut sources: Vec<String> = CORPUS.iter().map(|item| item.source.to_string()).collect();
    let generated = array_sources(&DbSearchConfig::board128())
        .into_iter()
        .chain(hypercube_sources(&HypercubeConfig::hypercube256()))
        .chain(routed_sources(&DbSearchConfig::figure8()));
    sources.extend(generated.map(|(_, source)| source));
    sources
}

#[test]
fn front_end_output_is_pinned() {
    let sources = front_end_sources();
    let (mut tokens, mut trees) = (FNV_BASIS, FNV_BASIS);
    for source in &sources {
        fnv1a(&mut tokens, &format!("{:?}", occam::lexer::lex(source)));
        fnv1a(&mut trees, &format!("{:?}", occam::parse(source)));
    }
    assert_eq!(
        (sources.len(), tokens, trees),
        (223, 0x59e3_4783_b17d_4ffd, 0x4486_d944_0b80_bf17)
    );
}

/// Constructs the front-end sources use rarely or never, each written
/// so that no code is dead: plain, PRI and replicated ALT with channel,
/// timer and SKIP guards (some guards deep enough to be evaluated
/// first), PRI PAR, replicated PAR, PROCs with five arguments and free
/// variables reached through static links, `BYTE` subscripts, and
/// channel-vector subscripts deep enough to be parked.
const CONSTRUCT_SAMPLER: &[&str] = &[
    "VAR a, b, r, t:\n\
     CHAN c, d:\n\
     SEQ\n\
     \x20 a := 1\n\
     \x20 b := 2\n\
     \x20 r := 0\n\
     \x20 PAR\n\
     \x20\x20\x20 SEQ\n\
     \x20\x20\x20\x20\x20 c ! 5\n\
     \x20\x20\x20\x20\x20 d ! 6\n\
     \x20\x20\x20 SEQ\n\
     \x20\x20\x20\x20\x20 TIME ? t\n\
     \x20\x20\x20\x20\x20 ALT\n\
     \x20\x20\x20\x20\x20\x20\x20 ((a + b) > (r * t)) & c ? r\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + 10\n\
     \x20\x20\x20\x20\x20\x20\x20 d ? r\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + 20\n\
     \x20\x20\x20\x20\x20\x20\x20 ((a * b) < (t + 3)) & TIME ? AFTER t + 100\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := 30\n\
     \x20\x20\x20\x20\x20\x20\x20 ((a - b) = (r * t)) & SKIP\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := 40\n\
     \x20\x20\x20\x20\x20 PRI ALT\n\
     \x20\x20\x20\x20\x20\x20\x20 c ? r\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + 1\n\
     \x20\x20\x20\x20\x20\x20\x20 (a < b) & d ? r\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + 2\n\
     \x20\x20\x20\x20\x20\x20\x20 TIME ? AFTER t + 200\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := 3\n\
     \x20\x20\x20\x20\x20\x20\x20 SKIP\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := 4\n",
    "VAR r, t, k:\n\
     CHAN c[8]:\n\
     SEQ\n\
     \x20 r := 0\n\
     \x20 k := 1\n\
     \x20 PAR\n\
     \x20\x20\x20 PAR w = [0 FOR 4]\n\
     \x20\x20\x20\x20\x20 c[w] ! w\n\
     \x20\x20\x20 SEQ\n\
     \x20\x20\x20\x20\x20 TIME ? t\n\
     \x20\x20\x20\x20\x20 ALT i = [0 FOR 4]\n\
     \x20\x20\x20\x20\x20\x20\x20 ((i + k) > (r * 2)) & c[i] ? r\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + i\n\
     \x20\x20\x20\x20\x20 ALT i = [0 FOR 4]\n\
     \x20\x20\x20\x20\x20\x20\x20 c[(i * 2) + (k * 0)] ? r\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + 1\n\
     \x20\x20\x20\x20\x20 PRI ALT i = [1 FOR 3]\n\
     \x20\x20\x20\x20\x20\x20\x20 ((i + k) > (t * 2)) & TIME ? AFTER t + i\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := i\n\
     \x20\x20\x20\x20\x20 ALT i = [0 FOR k]\n\
     \x20\x20\x20\x20\x20\x20\x20 ((i * k) = (r + t)) & SKIP\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + i\n\
     \x20\x20\x20\x20\x20 ALT i = [0 FOR 2]\n\
     \x20\x20\x20\x20\x20\x20\x20 SKIP\n\
     \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := r + i\n",
    "VAR total, x, y:\n\
     VAR buf[4]:\n\
     CHAN c, d:\n\
     PROC five (VALUE p, q, VAR s, CHAN out, VALUE v[]) =\n\
     \x20 SEQ\n\
     \x20\x20\x20 s := (p + q) + v[1]\n\
     \x20\x20\x20 out ! s\n\
     :\n\
     PROC outer (VALUE n, VAR res) =\n\
     \x20 VAR acc:\n\
     \x20 PROC step (VALUE m) =\n\
     \x20\x20\x20 SEQ\n\
     \x20\x20\x20\x20\x20 acc := acc + m\n\
     \x20\x20\x20\x20\x20 total := total + acc\n\
     \x20 :\n\
     \x20 SEQ\n\
     \x20\x20\x20 acc := n\n\
     \x20\x20\x20 step (n + 1)\n\
     \x20\x20\x20 step ((n * 2) + (acc * 3))\n\
     \x20\x20\x20 res := acc\n\
     :\n\
     SEQ\n\
     \x20 total := 0\n\
     \x20 y := 5\n\
     \x20 buf[1] := 3\n\
     \x20 PAR\n\
     \x20\x20\x20 five ((y * y) + (y * 3), (y + 1) * (y - 1), x, c, buf)\n\
     \x20\x20\x20 c ? total\n\
     \x20 outer (4, x)\n\
     \x20 PRI PAR\n\
     \x20\x20\x20 d ! x\n\
     \x20\x20\x20 d ? y\n\
     \x20 PAR i = [0 FOR 3]\n\
     \x20\x20\x20 VAR z:\n\
     \x20\x20\x20 SEQ\n\
     \x20\x20\x20\x20\x20 z := i * 2\n\
     \x20\x20\x20\x20\x20 buf[i] := z + total\n",
    "VAR buf[4], i, j, v:\n\
     CHAN c[9]:\n\
     SEQ\n\
     \x20 i := 1\n\
     \x20 j := 2\n\
     \x20 buf[BYTE 0] := 7\n\
     \x20 buf[BYTE i] := j\n\
     \x20 buf[BYTE (i * 2) + (j * 1)] := (i * j) + (j * 3)\n\
     \x20 v := buf[BYTE i + j]\n\
     \x20 v := v + buf[BYTE (i * 3) + (j * 2)]\n\
     \x20 buf[i] := v\n\
     \x20 buf[(i * 2) + (j - 1)] := (v * 2) + (i * 3)\n\
     \x20 v := buf[2] + buf[i + 1]\n\
     \x20 PAR\n\
     \x20\x20\x20 c[(i * 2) + (j * 1)] ! (v * 2) + (i * j)\n\
     \x20\x20\x20 c[(i * 2) + (j * 1)] ? buf[j]\n\
     \x20 PAR\n\
     \x20\x20\x20 c[i + j] ! v\n\
     \x20\x20\x20 c[i + j] ? buf[0]\n",
];

/// Every compile result of the back end, written as text: the code,
/// `locals`, `depth`, the globals sorted by name, the warnings and the
/// counted loops, or the error.
fn back_end_output(source: &str, options: &occam::Options) -> String {
    match occam::compile_with(source, options.clone()) {
        Ok(p) => {
            let mut globals: Vec<_> = p.globals.iter().collect();
            globals.sort();
            format!(
                "{:?} {} {} {:?} {:?} {:?}",
                p.code, p.locals, p.depth, globals, p.warnings, p.loops
            )
        }
        Err(e) => e.to_string(),
    }
}

/// The code generator's output over every committed source and a
/// sampler of rarer constructs, under three option sets, is pinned: a
/// back-end change that moves one byte, one frame word or one loop
/// record fails here.
#[test]
fn back_end_output_is_pinned() {
    use transputer_apps::workstation::{placement_sources, Placement, WorkstationConfig};
    let mut sources = front_end_sources();
    let experiments = transputer_bench::expimages::experiment_sources();
    sources.extend(experiments.into_iter().map(|(_, source)| source));
    for placement in [Placement::One, Placement::Two, Placement::Three] {
        sources.extend(placement_sources(placement, &WorkstationConfig::default()));
    }
    sources.extend(CONSTRUCT_SAMPLER.iter().map(ToString::to_string));
    let option_sets = [
        occam::Options::default(),
        occam::Options {
            bounds_checks: true,
            ..occam::Options::default()
        },
        occam::Options {
            word_independent: false,
            word_length: WordLength::Bits16,
            ..occam::Options::default()
        },
    ];
    let mut hashes = [FNV_BASIS; 3];
    for (hash, options) in hashes.iter_mut().zip(&option_sets) {
        for source in &sources {
            fnv1a(hash, &back_end_output(source, options));
        }
    }
    for source in CONSTRUCT_SAMPLER {
        for options in &option_sets {
            assert!(
                occam::compile_with(source, options.clone()).is_ok(),
                "{}",
                back_end_output(source, options)
            );
        }
    }
    assert_eq!(
        (sources.len(), hashes),
        (
            345,
            [
                0xab4a_8c6f_5a45_f444,
                0xbff8_88dd_a229_0fe6,
                0x2563_cde2_3927_6368
            ]
        )
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
