//! Toolchain-level tests of the static analysis subsystem: the whole
//! bench corpus passes both the occam channel-usage lint and the I1
//! bytecode verifier; disassembled corpus programs re-assemble to
//! identical bytes; and hand-built negative fixtures are rejected with
//! diagnostics that carry a position.

use transputer::instr::{encode, Direct};
use transputer_analysis::verifier::{verify_bytecode, verify_program, CodeShape};
use transputer_analysis::{lint_source, verify_program_cfg, Severity, Span};
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
