//! End-to-end compiler tests: occam source → I1 code → emulated run →
//! result inspection.

use occam::{compile, compile_with, Options};
use transputer::{Cpu, CpuConfig, RunOutcome, WordLength};

/// Compile, run to halt, return a closure reading globals.
fn run(src: &str) -> (occam::Program, Cpu, u32) {
    run_with(src, Options::default(), CpuConfig::t424())
}

fn run_with(src: &str, opts: Options, cfg: CpuConfig) -> (occam::Program, Cpu, u32) {
    let program = compile_with(src, opts).expect("compiles");
    let mut cpu = Cpu::new(cfg);
    let wptr = program.load(&mut cpu).expect("loads");
    match cpu.run(50_000_000).expect("within budget") {
        RunOutcome::Halted(transputer::HaltReason::Stopped) => {}
        other => panic!("program did not halt cleanly: {other:?}"),
    }
    (program, cpu, wptr)
}

fn global(p: &occam::Program, cpu: &mut Cpu, wptr: u32, name: &str) -> i64 {
    let v = p.read_global(cpu, wptr, name).expect("global readable");
    cpu.word_length().to_signed(v)
}

macro_rules! check_globals {
    ($src:expr, $( $name:literal => $value:expr ),+ $(,)?) => {{
        let (p, mut cpu, wptr) = run($src);
        $(
            assert_eq!(
                global(&p, &mut cpu, wptr, $name),
                $value,
                "global `{}`", $name
            );
        )+
    }};
}

#[test]
fn assignment_and_arithmetic() {
    check_globals!(
        "VAR x, y, z:\n\
         SEQ\n\
         \x20 x := 10\n\
         \x20 y := x * 3\n\
         \x20 z := (y - 4) / 2",
        "x" => 10, "y" => 30, "z" => 13,
    );
}

#[test]
fn paper_table_x_becomes_zero() {
    check_globals!("VAR x:\nx := 0", "x" => 0);
}

#[test]
fn negative_numbers_and_remainder() {
    check_globals!(
        "VAR a, b, c:\n\
         SEQ\n\
         \x20 a := -17\n\
         \x20 b := a \\ 5\n\
         \x20 c := a / 5",
        "a" => -17, "b" => -2, "c" => -3,
    );
}

#[test]
fn comparisons_and_booleans() {
    check_globals!(
        "VAR lt, gt, le, ge, eq, ne, andv, orv, notv:\n\
         SEQ\n\
         \x20 lt := 3 < 5\n\
         \x20 gt := 3 > 5\n\
         \x20 le := 5 <= 5\n\
         \x20 ge := 4 >= 5\n\
         \x20 eq := 7 = 7\n\
         \x20 ne := 7 <> 7\n\
         \x20 andv := TRUE AND FALSE\n\
         \x20 orv := TRUE OR FALSE\n\
         \x20 notv := NOT FALSE",
        "lt" => 1, "gt" => 0, "le" => 1, "ge" => 0,
        "eq" => 1, "ne" => 0, "andv" => 0, "orv" => 1, "notv" => 1,
    );
}

#[test]
fn comparisons_with_variables() {
    check_globals!(
        "VAR x, y, r1, r2:\n\
         SEQ\n\
         \x20 x := -1\n\
         \x20 y := 1\n\
         \x20 r1 := x < y\n\
         \x20 r2 := x > y",
        "r1" => 1, "r2" => 0,
    );
}

#[test]
fn bit_operations() {
    check_globals!(
        "VAR a, o, x, sl, sr, n:\n\
         SEQ\n\
         \x20 a := 12 /\\ 10\n\
         \x20 o := 12 \\/ 10\n\
         \x20 x := 12 >< 10\n\
         \x20 sl := 1 << 6\n\
         \x20 sr := 64 >> 3\n\
         \x20 n := ~0",
        "a" => 8, "o" => 14, "x" => 6, "sl" => 64, "sr" => 8, "n" => -1,
    );
}

#[test]
fn nested_spill_does_not_clobber_outer_operand() {
    // Regression found by the differential fuzzer: an inner expression
    // deep enough to take the spill path needs the whole stack, so an
    // enclosing comparison's left operand must be spilled around it.
    let src = concat!(
        "VAR x0, r:\n",
        "SEQ\n",
        "  x0 := 0\n",
        "  IF\n",
        "    x0 > ((0 + 0) /\\ (1 /\\ (0 /\\ x0)))\n",
        "      r := 1\n",
        "    TRUE\n",
        "      r := 2\n",
    );
    check_globals!(src, "r" => 2);
}

#[test]
fn deep_expression_spills() {
    // Forces more than three stack entries without parentheses relief.
    check_globals!(
        "VAR r:\n\
         r := ((1 + 2) * (3 + 4)) + ((5 + 6) * (7 + (8 * (9 + 10))))",
        "r" => 21 + 11 * (7 + 8 * 19),
    );
}

#[test]
fn if_choices() {
    check_globals!(
        "VAR x, r:\n\
         SEQ\n\
         \x20 x := 7\n\
         \x20 IF\n\
         \x20\x20\x20 x > 10\n\
         \x20\x20\x20\x20\x20 r := 1\n\
         \x20\x20\x20 x > 5\n\
         \x20\x20\x20\x20\x20 r := 2\n\
         \x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20 r := 3",
        "r" => 2,
    );
}

#[test]
fn while_loop_sums() {
    check_globals!(
        "VAR i, total:\n\
         SEQ\n\
         \x20 i := 1\n\
         \x20 total := 0\n\
         \x20 WHILE i <= 10\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 total := total + i\n\
         \x20\x20\x20\x20\x20 i := i + 1",
        "total" => 55, "i" => 11,
    );
}

#[test]
fn replicated_seq() {
    check_globals!(
        "VAR total:\n\
         SEQ\n\
         \x20 total := 0\n\
         \x20 SEQ i = [0 FOR 10]\n\
         \x20\x20\x20 total := total + i",
        "total" => 45,
    );
}

#[test]
fn replicated_seq_zero_count_runs_nothing() {
    check_globals!(
        "VAR total, n:\n\
         SEQ\n\
         \x20 total := 99\n\
         \x20 n := 0\n\
         \x20 SEQ i = [0 FOR n]\n\
         \x20\x20\x20 total := total + 1",
        "total" => 99,
    );
}

#[test]
fn vectors() {
    check_globals!(
        "VAR v[10], total:\n\
         SEQ\n\
         \x20 SEQ i = [0 FOR 10]\n\
         \x20\x20\x20 v[i] := i * i\n\
         \x20 total := 0\n\
         \x20 SEQ i = [0 FOR 10]\n\
         \x20\x20\x20 total := total + v[i]",
        "total" => 285,
    );
}

#[test]
fn vector_constant_subscripts() {
    check_globals!(
        "VAR v[4], r:\n\
         SEQ\n\
         \x20 v[0] := 5\n\
         \x20 v[3] := 7\n\
         \x20 r := v[0] + v[3]",
        "r" => 12,
    );
}

#[test]
fn def_constants() {
    check_globals!(
        "DEF n = 6:\n\
         DEF m = n * 7:\n\
         VAR r:\n\
         r := m",
        "r" => 42,
    );
}

#[test]
fn internal_channel_between_par_branches() {
    check_globals!(
        "VAR r:\n\
         CHAN c:\n\
         SEQ\n\
         \x20 r := 0\n\
         \x20 PAR\n\
         \x20\x20\x20 c ! 41 + 1\n\
         \x20\x20\x20 c ? r",
        "r" => 42,
    );
}

#[test]
fn par_three_branches() {
    check_globals!(
        "VAR a, b, c:\n\
         PAR\n\
         \x20 a := 1\n\
         \x20 b := 2\n\
         \x20 c := 3",
        "a" => 1, "b" => 2, "c" => 3,
    );
}

#[test]
fn pipeline_of_channels() {
    // Three-stage pipeline doubling twice.
    check_globals!(
        "VAR r:\n\
         CHAN a, b:\n\
         PAR\n\
         \x20 a ! 10\n\
         \x20 VAR x:\n\
         \x20 SEQ\n\
         \x20\x20\x20 a ? x\n\
         \x20\x20\x20 b ! x * 2\n\
         \x20 VAR y:\n\
         \x20 SEQ\n\
         \x20\x20\x20 b ? y\n\
         \x20\x20\x20 r := y * 2",
        "r" => 40,
    );
}

#[test]
fn replicated_par_workers() {
    // Each copy writes its replicator value into its slot of a shared
    // vector (disjoint elements, as occam requires).
    check_globals!(
        "VAR v[5], total:\n\
         SEQ\n\
         \x20 PAR i = [0 FOR 5]\n\
         \x20\x20\x20 v[i] := i * 10\n\
         \x20 total := (((v[0] + v[1]) + v[2]) + v[3]) + v[4]",
        "total" => 100,
    );
}

#[test]
fn proc_value_and_var_params() {
    check_globals!(
        "PROC add (VALUE a, b, VAR r) =\n\
         \x20 r := a + b\n\
         :\n\
         VAR x:\n\
         add (20, 22, x)",
        "x" => 42,
    );
}

#[test]
fn proc_more_than_three_params() {
    check_globals!(
        "PROC sum5 (VALUE a, b, c, d, e, VAR r) =\n\
         \x20 r := (((a + b) + c) + d) + e\n\
         :\n\
         VAR x:\n\
         sum5 (1, 2, 3, 4, 5, x)",
        "x" => 15,
    );
}

#[test]
fn proc_free_variable_via_static_link() {
    // The paper's §3.2.6 example: a nested PROC assigning to a variable
    // declared outside it, compiled through the static link.
    check_globals!(
        "VAR z:\n\
         PROC setz =\n\
         \x20 z := 1\n\
         :\n\
         SEQ\n\
         \x20 z := 0\n\
         \x20 setz ()",
        "z" => 1,
    );
}

#[test]
fn nested_procs_two_levels() {
    check_globals!(
        "VAR r:\n\
         PROC outer (VALUE a) =\n\
         \x20 VAR local:\n\
         \x20 PROC inner =\n\
         \x20\x20\x20 r := local + a\n\
         \x20 :\n\
         \x20 SEQ\n\
         \x20\x20\x20 local := 100\n\
         \x20\x20\x20 inner ()\n\
         :\n\
         outer (11)",
        "r" => 111,
    );
}

#[test]
fn proc_chan_params() {
    check_globals!(
        "VAR r:\n\
         CHAN link:\n\
         PROC produce (CHAN out) =\n\
         \x20 out ! 7\n\
         :\n\
         PROC consume (CHAN in, VAR dest) =\n\
         \x20 in ? dest\n\
         :\n\
         PAR\n\
         \x20 produce (link)\n\
         \x20 consume (link, r)",
        "r" => 7,
    );
}

#[test]
fn alt_selects_ready_channel() {
    check_globals!(
        "VAR r:\n\
         CHAN a, b:\n\
         PAR\n\
         \x20 b ! 5\n\
         \x20 ALT\n\
         \x20\x20\x20 a ? r\n\
         \x20\x20\x20\x20\x20 r := r + 100\n\
         \x20\x20\x20 b ? r\n\
         \x20\x20\x20\x20\x20 r := r + 200",
        "r" => 205,
    );
}

#[test]
fn alt_guard_false_excludes_branch() {
    check_globals!(
        "VAR r:\n\
         CHAN a, b:\n\
         PAR\n\
         \x20 PAR\n\
         \x20\x20\x20 a ! 1\n\
         \x20\x20\x20 b ! 2\n\
         \x20 VAR x:\n\
         \x20 SEQ\n\
         \x20\x20\x20 ALT\n\
         \x20\x20\x20\x20\x20 FALSE & a ? x\n\
         \x20\x20\x20\x20\x20\x20\x20 r := 10\n\
         \x20\x20\x20\x20\x20 b ? x\n\
         \x20\x20\x20\x20\x20\x20\x20 r := 20\n\
         \x20\x20\x20 a ? x",
        "r" => 20,
    );
}

#[test]
fn alt_skip_guard() {
    check_globals!(
        "VAR r:\n\
         CHAN never:\n\
         ALT\n\
         \x20 never ? r\n\
         \x20\x20\x20 r := 1\n\
         \x20 TRUE & SKIP\n\
         \x20\x20\x20 r := 2",
        "r" => 2,
    );
}

#[test]
fn alt_timeout_fires() {
    check_globals!(
        "VAR r, t:\n\
         CHAN never:\n\
         SEQ\n\
         \x20 TIME ? t\n\
         \x20 ALT\n\
         \x20\x20\x20 never ? r\n\
         \x20\x20\x20\x20\x20 r := 1\n\
         \x20\x20\x20 TIME ? AFTER t + 10\n\
         \x20\x20\x20\x20\x20 r := 2",
        "r" => 2,
    );
}

#[test]
fn delay_advances_clock() {
    let (p, mut cpu, wptr) = run("VAR t0, t1, d:\n\
         SEQ\n\
         \x20 TIME ? t0\n\
         \x20 TIME ? AFTER t0 + 20\n\
         \x20 TIME ? t1\n\
         \x20 d := t1 - t0");
    let d = global(&p, &mut cpu, wptr, "d");
    assert!((20..=23).contains(&d), "delayed {d} ticks, wanted ~20");
}

#[test]
fn stop_deadlocks() {
    let program = compile("STOP").expect("compiles");
    let mut cpu = Cpu::new(CpuConfig::t424());
    program.load(&mut cpu).expect("loads");
    assert_eq!(cpu.run(100_000).unwrap(), RunOutcome::Deadlock);
}

#[test]
fn empty_if_stops() {
    let program = compile(
        "VAR x:\n\
         SEQ\n\
         \x20 x := 0\n\
         \x20 IF\n\
         \x20\x20\x20 x = 1\n\
         \x20\x20\x20\x20\x20 x := 2",
    )
    .expect("compiles");
    let mut cpu = Cpu::new(CpuConfig::t424());
    program.load(&mut cpu).expect("loads");
    assert_eq!(cpu.run(100_000).unwrap(), RunOutcome::Deadlock);
}

#[test]
fn pri_par_runs_first_branch_at_high_priority() {
    // The high branch samples the priority via a busy low branch: both
    // record; the high one must complete first.
    check_globals!(
        "VAR first, lowdone:\n\
         SEQ\n\
         \x20 first := 0\n\
         \x20 lowdone := 0\n\
         \x20 PRI PAR\n\
         \x20\x20\x20 IF\n\
         \x20\x20\x20\x20\x20 first = 0\n\
         \x20\x20\x20\x20\x20\x20\x20 first := 1\n\
         \x20\x20\x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20\x20\x20 SKIP\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 lowdone := 1\n\
         \x20\x20\x20\x20\x20 IF\n\
         \x20\x20\x20\x20\x20\x20\x20 first = 0\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 first := 2\n\
         \x20\x20\x20\x20\x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 SKIP",
        "first" => 1, "lowdone" => 1,
    );
}

#[test]
fn word_length_independence() {
    // §3.3: the same binary behaves identically on 16- and 32-bit parts.
    let src = "VAR r, v[4]:\n\
               SEQ\n\
               \x20 SEQ i = [0 FOR 4]\n\
               \x20\x20\x20 v[i] := (i + 1) * 3\n\
               \x20 r := ((v[0] + v[1]) + v[2]) + v[3]";
    let (p32, mut c32, w32) = run_with(src, Options::default(), CpuConfig::t424());
    let (p16, mut c16, w16) = run_with(src, Options::default(), CpuConfig::t222());
    assert_eq!(
        global(&p32, &mut c32, w32, "r"),
        global(&p16, &mut c16, w16, "r")
    );
    assert_eq!(global(&p32, &mut c32, w32, "r"), 30);
}

#[test]
fn word_dependent_mode_also_works() {
    let opts = Options {
        word_independent: false,
        word_length: WordLength::Bits32,
        ..Options::default()
    };
    let src = "VAR r:\nCHAN c:\nPAR\n\x20 c ! 9\n\x20 c ? r";
    let (p, mut cpu, wptr) = run_with(src, opts, CpuConfig::t424());
    assert_eq!(global(&p, &mut cpu, wptr, "r"), 9);
}

#[test]
fn bounds_checks_catch_overrun() {
    let opts = Options {
        bounds_checks: true,
        ..Options::default()
    };
    let src = "VAR v[4], i, r:\n\
               SEQ\n\
               \x20 i := 9\n\
               \x20 v[i] := 1\n\
               \x20 r := 0";
    let program = compile_with(src, opts).expect("compiles");
    let mut cpu = Cpu::new(CpuConfig::t424());
    program.load(&mut cpu).expect("loads");
    cpu.run(100_000).unwrap();
    assert!(
        cpu.error_flag(),
        "the out-of-range subscript sets the error flag"
    );
}

#[test]
fn bounds_checked_var_argument_keeps_the_arguments_below_it() {
    // `v[i]` as a VAR argument is an element address whose `csub0`
    // limit needs the whole stack, so it is evaluated before `7`, the
    // argument loaded under it.
    let opts = Options {
        bounds_checks: true,
        ..Options::default()
    };
    let src = "PROC p (VALUE a, VAR b, VALUE c) =\n\
               \x20 b := (a * 10) + c\n\
               :\n\
               VAR v[4], i, r:\n\
               SEQ\n\
               \x20 i := 2\n\
               \x20 p (4, v[i], 7)\n\
               \x20 r := v[2]";
    let (p, mut cpu, wptr) = run_with(src, opts, CpuConfig::t424());
    assert_eq!(global(&p, &mut cpu, wptr, "r"), 47);
}

#[test]
fn pri_alt_takes_the_textually_first_ready_guard() {
    // Both channels are ready before the PRI ALT runs; the first
    // alternative must win (the hardware's ordered disabling sequence).
    check_globals!(
        "VAR r:\n\
         CHAN hi, lo:\n\
         PAR\n\
         \x20 hi ! 1\n\
         \x20 lo ! 2\n\
         \x20 VAR x, t:\n\
         \x20 SEQ\n\
         \x20\x20\x20 TIME ? t\n\
         \x20\x20\x20 TIME ? AFTER t + 5\n\
         \x20\x20\x20 PRI ALT\n\
         \x20\x20\x20\x20\x20 hi ? x\n\
         \x20\x20\x20\x20\x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := x * 100\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 lo ? x\n\
         \x20\x20\x20\x20\x20 lo ? x\n\
         \x20\x20\x20\x20\x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 r := x * 1000\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 hi ? x",
        "r" => 100,
    );
}

#[test]
fn valof_value_process() {
    // occam 1's value process: run a process, yield an expression, with
    // the body's declarations visible to RESULT.
    check_globals!(
        "VAR x:\n\
         x := VALOF\n\
         \x20 VAR acc:\n\
         \x20 SEQ\n\
         \x20\x20\x20 acc := 0\n\
         \x20\x20\x20 SEQ i = [1 FOR 10]\n\
         \x20\x20\x20\x20\x20 acc := acc + i\n\
         \x20 RESULT acc * 2\n",
        "x" => 110,
    );
}

#[test]
fn valof_into_vector_element() {
    check_globals!(
        "VAR v[4], r:\n\
         SEQ\n\
         \x20 v[2] := VALOF\n\
         \x20\x20\x20 VAR t:\n\
         \x20\x20\x20 t := 6\n\
         \x20\x20\x20 RESULT t * 7\n\
         \x20 r := v[2]",
        "r" => 42,
    );
}

#[test]
fn valof_requires_result() {
    assert!(compile("VAR x:\nx := VALOF\n\x20 SKIP\n").is_err());
}

#[test]
fn multi_item_messages() {
    check_globals!(
        "VAR a, b, c:\n\
         CHAN ch:\n\
         PAR\n\
         \x20 ch ! 1; 2; 3\n\
         \x20 ch ? a; b; c",
        "a" => 1, "b" => 2, "c" => 3,
    );
}

#[test]
fn vector_parameters() {
    // A library PROC summing any vector: `VALUE v[]` passes the base
    // address; the length travels separately (occam 1 style).
    check_globals!(
        "PROC sum (VALUE v[], n, VAR r) =\n\
         \x20 SEQ\n\
         \x20\x20\x20 r := 0\n\
         \x20\x20\x20 SEQ i = [0 FOR n]\n\
         \x20\x20\x20\x20\x20 r := r + v[i]\n\
         :\n\
         VAR a[5], b[3], ra, rb:\n\
         SEQ\n\
         \x20 SEQ i = [0 FOR 5]\n\
         \x20\x20\x20 a[i] := i + 1\n\
         \x20 SEQ i = [0 FOR 3]\n\
         \x20\x20\x20 b[i] := i * 10\n\
         \x20 sum (a, 5, ra)\n\
         \x20 sum (b, 3, rb)",
        "ra" => 15, "rb" => 30,
    );
}

#[test]
fn writable_vector_parameter() {
    check_globals!(
        "PROC fill (VAR v[], VALUE n, seed) =\n\
         \x20 SEQ i = [0 FOR n]\n\
         \x20\x20\x20 v[i] := seed + i\n\
         :\n\
         VAR buf[4], check:\n\
         SEQ\n\
         \x20 fill (buf, 4, 100)\n\
         \x20 check := ((buf[0] + buf[1]) + buf[2]) + buf[3]",
        "check" => 100 + 101 + 102 + 103,
    );
}

#[test]
fn value_vector_parameter_is_read_only() {
    assert!(compile(
        "PROC bad (VALUE v[]) =\n\
         \x20 v[0] := 1\n\
         :\n\
         VAR a[2]:\n\
         bad (a)"
    )
    .is_err());
}

#[test]
fn channel_vector_parameter() {
    // A fan-in PROC over a channel vector, called with the whole vector.
    check_globals!(
        "PROC gather (CHAN c[], VALUE n, VAR total) =\n\
         \x20 VAR x:\n\
         \x20 SEQ\n\
         \x20\x20\x20 total := 0\n\
         \x20\x20\x20 SEQ k = [0 FOR n]\n\
         \x20\x20\x20\x20\x20 ALT i = [0 FOR n]\n\
         \x20\x20\x20\x20\x20\x20\x20 c[i] ? x\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 total := total + x\n\
         :\n\
         VAR r:\n\
         CHAN work[3]:\n\
         PAR\n\
         \x20 PAR w = [0 FOR 3]\n\
         \x20\x20\x20 work[w] ! (w + 1) * 7\n\
         \x20 gather (work, 3, r)",
        "r" => 7 + 14 + 21,
    );
}

#[test]
fn vector_param_forwarding() {
    // Vector parameters can be forwarded to further PROCs.
    check_globals!(
        "PROC inner (VALUE v[], VAR r) =\n\
         \x20 r := v[1]\n\
         :\n\
         PROC outer (VALUE v[], VAR r) =\n\
         \x20 inner (v, r)\n\
         :\n\
         VAR a[3], x:\n\
         SEQ\n\
         \x20 a[1] := 42\n\
         \x20 outer (a, x)",
        "x" => 42,
    );
}

#[test]
fn byte_subscripts() {
    // v[BYTE i] views a word vector as bytes (little-endian storage).
    check_globals!(
        "VAR v[2], lo, b2, sum:\n\
         SEQ\n\
         \x20 v[0] := #04030201\n\
         \x20 v[1] := 0\n\
         \x20 lo := v[BYTE 0]\n\
         \x20 b2 := v[BYTE 2]\n\
         \x20 v[BYTE 4] := 'A'\n\
         \x20 sum := v[1]\n",
        "lo" => 1, "b2" => 3, "sum" => 65,
    );
}

#[test]
fn byte_subscript_with_dynamic_index() {
    check_globals!(
        "VAR buf[4], total, i:\n\
         SEQ\n\
         \x20 SEQ k = [0 FOR 16]\n\
         \x20\x20\x20 buf[BYTE k] := k * 3\n\
         \x20 total := 0\n\
         \x20 i := 0\n\
         \x20 WHILE i < 16\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 total := total + buf[BYTE i]\n\
         \x20\x20\x20\x20\x20 i := i + 1",
        "total" => (0..16).map(|k| k * 3).sum::<i64>(),
    );
}

#[test]
fn byte_subscript_rejects_message_targets() {
    assert!(compile("VAR v[2]:\nCHAN c:\nPAR\n\x20 c ! 1\n\x20 c ? v[BYTE 0]").is_err());
}

#[test]
fn par_usage_rule_rejects_shared_writes() {
    // Two branches assigning the same scalar: rejected (§2.2.1's
    // checkability discipline).
    let err = compile("VAR x:\nPAR\n\x20 x := 1\n\x20 x := 2").unwrap_err();
    assert!(err.message.contains('x'), "names the variable: {err}");
    // Write in one branch, read in another: rejected.
    assert!(compile("VAR x, y:\nPAR\n\x20 x := 1\n\x20 y := x").is_err());
    // A replicated PAR writing a free scalar: rejected.
    assert!(compile("VAR x:\nPAR i = [0 FOR 3]\n\x20 x := i").is_err());
    // Vector elements are exempt (subscript disjointness is the
    // programmer's contract here).
    assert!(compile("VAR v[4]:\nPAR i = [0 FOR 4]\n\x20 v[i] := i").is_ok());
    // Branch-local variables never conflict.
    assert!(compile(
        "PAR\n\
         \x20 VAR t:\n\
         \x20 t := 1\n\
         \x20 VAR t:\n\
         \x20 t := 2"
    )
    .is_ok());
    // VAR-parameter actuals count as writes.
    assert!(compile(
        "PROC bump (VAR x) =\n\
         \x20 x := x + 1\n\
         :\n\
         VAR n:\n\
         PAR\n\
         \x20 bump (n)\n\
         \x20 bump (n)"
    )
    .is_err());
}

#[test]
fn compile_errors_are_reported() {
    assert!(compile("x := 1").is_err(), "undefined variable");
    assert!(compile("VAR x:\nx := y").is_err(), "undefined rhs");
    assert!(compile("VAR x:\nx ! 1").is_err(), "output on a variable");
    assert!(compile("CHAN c:\nc := 1").is_err(), "assign to channel");
    assert!(compile("VAR v[0]:\nv[0] := 1").is_err(), "zero-size vector");
    assert!(
        compile("PROC p (VALUE a) =\n\x20 SKIP\n:\np (1, 2)").is_err(),
        "arity mismatch"
    );
    assert!(
        compile("PROC p =\n\x20 p ()\n:\np ()").is_err(),
        "recursion is rejected"
    );
    assert!(compile("DEF n = x:\nSKIP").is_err(), "non-constant DEF");
}

#[test]
fn placed_channel_maps_to_link_word() {
    // Output placed on link 0's output channel: with no wire attached in
    // a bare Cpu the process blocks, which is a deadlock.
    let program = compile(
        "CHAN out:\n\
         PLACE out AT 0:\n\
         out ! 123",
    )
    .expect("compiles");
    let mut cpu = Cpu::new(CpuConfig::t424());
    program.load(&mut cpu).expect("loads");
    assert_eq!(cpu.run(100_000).unwrap(), RunOutcome::Deadlock);
    assert!(cpu.link_output_busy(0), "transfer parked on link 0");
}

#[test]
fn nested_par_in_seq_in_par() {
    check_globals!(
        "VAR a, b, c, d:\n\
         PAR\n\
         \x20 SEQ\n\
         \x20\x20\x20 a := 1\n\
         \x20\x20\x20 PAR\n\
         \x20\x20\x20\x20\x20 b := 2\n\
         \x20\x20\x20\x20\x20 c := 3\n\
         \x20 d := 4",
        "a" => 1, "b" => 2, "c" => 3, "d" => 4,
    );
}

#[test]
fn channel_vector_select() {
    check_globals!(
        "VAR r:\n\
         CHAN c[3]:\n\
         PAR\n\
         \x20 c[1] ! 11\n\
         \x20 c[1] ? r",
        "r" => 11,
    );
}

#[test]
fn compound_index_store() {
    // A depth-2 subscript expression on the left of `:=` must not push
    // the stored value off the three-deep stack.
    check_globals!(
        "VAR c[16], i, j, r:\n\
         SEQ\n\
         \x20 i := 2\n\
         \x20 j := 3\n\
         \x20 c[(i * 4) + j] := 77\n\
         \x20 r := c[11]",
        "r" => 77,
    );
}

#[test]
fn deep_guard_in_alt() {
    check_globals!(
        "VAR r, a, b:\n\
         CHAN c:\n\
         SEQ\n\
         \x20 a := 3\n\
         \x20 b := 4\n\
         \x20 PAR\n\
         \x20\x20\x20 c ! 9\n\
         \x20\x20\x20 ALT\n\
         \x20\x20\x20\x20\x20 ((a * 2) + (b * 3)) = 18 & c ? r\n\
         \x20\x20\x20\x20\x20\x20\x20 r := r + 1",
        "r" => 10,
    );
}

#[test]
fn deep_index_output_and_input() {
    check_globals!(
        "VAR r, i, j:\n\
         CHAN c[9]:\n\
         SEQ\n\
         \x20 i := 1\n\
         \x20 j := 2\n\
         \x20 PAR\n\
         \x20\x20\x20 c[(i * 3) + j] ! 55\n\
         \x20\x20\x20 c[(i * 3) + j] ? r",
        "r" => 55,
    );
}

#[test]
fn replicated_alt_selects_ready_worker() {
    // Five workers send on a channel vector; a replicated ALT collects
    // all five results, whichever order they become ready.
    check_globals!(
        "VAR total:\n\
         CHAN c[5]:\n\
         SEQ\n\
         \x20 total := 0\n\
         \x20 PAR\n\
         \x20\x20\x20 PAR w = [0 FOR 5]\n\
         \x20\x20\x20\x20\x20 c[w] ! (w + 1) * 10\n\
         \x20\x20\x20 SEQ k = [0 FOR 5]\n\
         \x20\x20\x20\x20\x20 VAR x:\n\
         \x20\x20\x20\x20\x20 ALT i = [0 FOR 5]\n\
         \x20\x20\x20\x20\x20\x20\x20 c[i] ? x\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 total := total + x",
        "total" => 10 + 20 + 30 + 40 + 50,
    );
}

#[test]
fn replicated_alt_selected_index_is_bound() {
    // Only channel 3 fires; the branch sees i = 3.
    check_globals!(
        "VAR which:\n\
         CHAN c[6]:\n\
         PAR\n\
         \x20 c[3] ! 99\n\
         \x20 VAR x:\n\
         \x20 ALT i = [0 FOR 6]\n\
         \x20\x20\x20 c[i] ? x\n\
         \x20\x20\x20\x20\x20 which := (i * 100) + x",
        "which" => 399,
    );
}

#[test]
fn replicated_alt_with_guard() {
    // Guards exclude the even channels; only c[1] can be taken.
    check_globals!(
        "VAR r:\n\
         CHAN c[4]:\n\
         PAR\n\
         \x20 PAR\n\
         \x20\x20\x20 c[0] ! 1\n\
         \x20\x20\x20 c[1] ! 2\n\
         \x20 VAR x:\n\
         \x20 SEQ\n\
         \x20\x20\x20 ALT i = [0 FOR 4]\n\
         \x20\x20\x20\x20\x20 ((i /\\ 1) = 1) & c[i] ? x\n\
         \x20\x20\x20\x20\x20\x20\x20 r := x\n\
         \x20\x20\x20 c[0] ? x",
        "r" => 2,
    );
}

#[test]
fn buffer_process_with_while_and_alt() {
    // A bounded buffer: producer sends 5 values and a stop signal;
    // consumer accumulates. Uses ALT with a termination channel.
    check_globals!(
        "VAR total:\n\
         CHAN data, stop:\n\
         SEQ\n\
         \x20 total := 0\n\
         \x20 PAR\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 SEQ i = [1 FOR 5]\n\
         \x20\x20\x20\x20\x20\x20\x20 data ! i\n\
         \x20\x20\x20\x20\x20 stop ! 0\n\
         \x20\x20\x20 VAR going, x:\n\
         \x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20 going := TRUE\n\
         \x20\x20\x20\x20\x20 WHILE going\n\
         \x20\x20\x20\x20\x20\x20\x20 ALT\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 data ? x\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 total := total + x\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 stop ? x\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20\x20\x20 going := FALSE",
        "total" => 15,
    );
}

/// Code the generator folds away takes no workspace: the branches after
/// an IF guard that folds to TRUE, and the body of a WHILE FALSE, each
/// with declarations and a replicated SEQ, leave the program exactly as
/// its live code alone compiles.
#[test]
fn dead_code_takes_no_workspace() {
    let dead = "VAR a, b, v[8]:\n\
                SEQ i = [0 FOR 3]\n\
                \x20 SEQ\n\
                \x20\x20\x20 a := i\n\
                \x20\x20\x20 v[i] := a + b\n";
    let indent = |text: &str, by: usize| -> String {
        let pad = " ".repeat(by);
        text.lines().map(|line| format!("{pad}{line}\n")).collect()
    };
    let live = "VAR x:\nSEQ\n  x := 1\n  IF\n    TRUE\n      x := 2\n";
    let after_true = format!("{live}    x = 2\n{}", indent(dead, 6));
    let while_false = format!("{live}  WHILE FALSE\n{}", indent(dead, 4));
    let live = compile(live).expect("live code compiles");
    for source in [after_true, while_false] {
        let program = compile(&source).expect("compiles");
        assert_eq!(
            (&program.code, program.locals, program.depth),
            (&live.code, live.locals, live.depth),
            "{source}"
        );
    }
}

/// A replicator variable shadows a DEF of the same name while the frame
/// is measured too, so an IF over it does not fold there and the frame
/// holds what its code allocates.
#[test]
fn replicator_shadows_a_def_in_measurement() {
    check_globals!(
        "DEF i = 1:\n\
         VAR x:\n\
         SEQ\n\
         \x20 x := 0\n\
         \x20 SEQ i = [0 FOR 3]\n\
         \x20\x20\x20 IF\n\
         \x20\x20\x20\x20\x20 i = 1\n\
         \x20\x20\x20\x20\x20\x20\x20 x := x + 100\n\
         \x20\x20\x20\x20\x20 TRUE\n\
         \x20\x20\x20\x20\x20\x20\x20 VAR a, b:\n\
         \x20\x20\x20\x20\x20\x20\x20 SEQ\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 a := i\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 b := a + 1\n\
         \x20\x20\x20\x20\x20\x20\x20\x20\x20 x := x + b",
        "x" => 100 + 1 + 3,
    );
}

/// A frame larger than memory is a typed error on both parts, never a
/// wrapped address that panics the loader or "loads" into 16 bytes: the
/// loader refuses a frame the address space holds but memory does not,
/// and the compiler one the address space cannot hold (or whose size the
/// word cannot).
#[test]
fn oversized_frames_are_refused_not_wrapped() {
    let frame = |words: u64| format!("VAR a[{words}]:\nSKIP\n");
    let positive = "refused: vector `a` must have positive size";
    let word16 = "refused: vector size must be a compile-time constant a 16-bit word holds";
    let cases: [(_, _, &[(u64, &str)]); 2] = [
        // Both parts have 64 KB: 20 000 words is 80 KB of 32-bit words
        // but 40 KB of 16-bit ones, which fits. A 16-bit frame 18 words
        // under its 32 768-word address space passes the compiler but
        // not the loader, which adds code and reserved words. As a 16-bit
        // word 40 000 is -25 536, and 2^32 - 1 is -1 as a 32-bit one;
        // 2^30 - 1 words and their two of headroom used to wrap to 16
        // bytes.
        (
            CpuConfig::t424(),
            WordLength::Bits32,
            &[
                (20_000, "too large to load"),
                (40_000, "too large to load"),
                (1_073_741_823, "refused: workspace too large"),
                (4_294_967_295, positive),
            ],
        ),
        (
            CpuConfig::t222(),
            WordLength::Bits16,
            &[
                (20_000, "loads"),
                (32_750, "too large to load"),
                (40_000, positive),
                (1_073_741_823, word16),
                (4_294_967_295, word16),
            ],
        ),
    ];
    for (config, word_length, expected) in cases {
        let options = Options {
            word_length,
            ..Options::default()
        };
        for &(words, outcome) in expected {
            let got = match compile_with(&frame(words), options.clone()) {
                Err(e) => {
                    assert_eq!(e.line, 1, "{e}");
                    format!("refused: {}", e.message)
                }
                Ok(program) => match program.load(&mut Cpu::new(config.clone())) {
                    Ok(_) => "loads".to_string(),
                    Err(transputer::CpuError::ProgramTooLarge { .. }) => {
                        "too large to load".to_string()
                    }
                    Err(e) => panic!("{e}"),
                },
            };
            assert!(got.starts_with(outcome), "{word_length:?} {words}: {got}");
        }
    }
}
