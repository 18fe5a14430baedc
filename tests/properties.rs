//! Property-based tests over the core invariants.

use occam::ast::{BinOp, Expr, Lvalue, Process, UnOp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use transputer::instr::{encode, encoded_len, Direct};
use transputer::word::WordLength;
use transputer::{Cpu, CpuConfig};
use transputer_link::PacketKind;

/// An expression AST mirrored in Rust and occam: the compiler and a
/// direct evaluator must agree.
#[derive(Debug, Clone)]
enum E {
    Lit(i64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    BitAnd(Box<E>, Box<E>),
    BitOr(Box<E>, Box<E>),
    BitXor(Box<E>, Box<E>),
}

impl E {
    /// Wrapping evaluation: exact whenever `bounded` below holds, which
    /// the property assumes before comparing.
    fn eval(&self) -> i64 {
        match self {
            E::Lit(n) => *n,
            E::Add(a, b) => a.eval().wrapping_add(b.eval()),
            E::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            E::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            E::BitAnd(a, b) => (a.eval() as u32 & b.eval() as u32) as i64,
            E::BitOr(a, b) => (a.eval() as u32 | b.eval() as u32) as i64,
            E::BitXor(a, b) => (a.eval() as u32 ^ b.eval() as u32) as i64,
        }
    }

    fn occam(&self) -> String {
        match self {
            E::Lit(n) => format!("{n}"),
            E::Add(a, b) => format!("({} + {})", a.occam(), b.occam()),
            E::Sub(a, b) => format!("({} - {})", a.occam(), b.occam()),
            E::Mul(a, b) => format!("({} * {})", a.occam(), b.occam()),
            E::BitAnd(a, b) => format!("({} /\\ {})", a.occam(), b.occam()),
            E::BitOr(a, b) => format!("({} \\/ {})", a.occam(), b.occam()),
            E::BitXor(a, b) => format!("({} >< {})", a.occam(), b.occam()),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = (0i64..50).prop_map(E::Lit);
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::BitAnd(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::BitOr(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::BitXor(Box::new(a), Box::new(b))),
        ]
    })
}

/// Every binary operator, and the precedence level the parser gives it
/// (higher binds tighter; `NOT` is level 3, `-` and `~` level 10).
const BINARY: [(BinOp, &str, u8); 19] = [
    (BinOp::Or, "OR", 1),
    (BinOp::And, "AND", 2),
    (BinOp::Eq, "=", 4),
    (BinOp::Ne, "<>", 4),
    (BinOp::Lt, "<", 4),
    (BinOp::Gt, ">", 4),
    (BinOp::Le, "<=", 4),
    (BinOp::Ge, ">=", 4),
    (BinOp::After, "AFTER", 4),
    (BinOp::BitOr, "\\/", 5),
    (BinOp::BitXor, "><", 5),
    (BinOp::BitAnd, "/\\", 6),
    (BinOp::Shl, "<<", 7),
    (BinOp::Shr, ">>", 7),
    (BinOp::Add, "+", 8),
    (BinOp::Sub, "-", 8),
    (BinOp::Mul, "*", 9),
    (BinOp::Div, "/", 9),
    (BinOp::Rem, "\\", 9),
];

/// A random expression `height` operators tall along one path; each
/// operator's other operand is at most two tall.
fn random_expr(rng: &mut StdRng, height: u32) -> Expr<'static> {
    if height == 0 {
        return match rng.gen_range(0..4u32) {
            0 => Expr::Literal(rng.gen_range(0..100i64)),
            1 => Expr::True,
            2 => Expr::Name("b.2"),
            _ => Expr::Name("a"),
        };
    }
    let inner = Box::new(random_expr(rng, height - 1));
    match rng.gen_range(0..8u32) {
        0 => Expr::Un(UnOp::Neg, inner),
        1 => Expr::Un(UnOp::BitNot, inner),
        2 => Expr::Un(UnOp::Not, inner),
        3 => Expr::Index("v", inner),
        _ => {
            let op = BINARY[rng.gen_range(0..BINARY.len())].0;
            let other_height = rng.gen_range(0..3u32).min(height - 1);
            let other = Box::new(random_expr(rng, other_height));
            if rng.gen() {
                Expr::Bin(op, inner, other)
            } else {
                Expr::Bin(op, other, inner)
            }
        }
    }
}

/// How tightly `e`'s outermost operator binds.
fn level(e: &Expr) -> u8 {
    match e {
        Expr::Bin(op, ..) => {
            BINARY
                .iter()
                .find(|(o, ..)| o == op)
                .expect("every operator")
                .2
        }
        Expr::Un(UnOp::Not, _) => 3,
        _ => 10,
    }
}

/// `e` as occam text: with only the parentheses the precedence table
/// needs, or (`full`) around every operator and subscript.
fn print(e: &Expr, full: bool) -> String {
    let operand = |x: &Expr, needed: bool| {
        let leaf = matches!(x, Expr::Literal(_) | Expr::True | Expr::Name(_));
        if needed || (full && !leaf) {
            format!("({})", print(x, full))
        } else {
            print(x, full)
        }
    };
    match e {
        Expr::Literal(n) => n.to_string(),
        Expr::True => "TRUE".into(),
        Expr::Name(name) => name.to_string(),
        Expr::Index(name, x) => format!("{name}[{}]", print(x, full)),
        // A space keeps `- -a` from reading as a comment.
        Expr::Un(UnOp::Neg, x) => format!("- {}", operand(x, level(x) < 10)),
        Expr::Un(UnOp::BitNot, x) => format!("~{}", operand(x, level(x) < 10)),
        Expr::Un(UnOp::Not, x) => format!("NOT {}", operand(x, level(x) < 3)),
        Expr::Bin(op, l, r) => {
            let (_, symbol, at) = *BINARY
                .iter()
                .find(|(o, ..)| o == op)
                .expect("every operator");
            // Left-associative, except that comparisons do not chain
            // and `NOT` never stands as an operand tighter than its own.
            let left = if at == 4 {
                level(l) <= 4
            } else {
                level(l) < at
            };
            format!(
                "{} {symbol} {}",
                operand(l, left),
                operand(r, level(r) <= at)
            )
        }
        other => unreachable!("not generated: {other:?}"),
    }
}

proptest! {
    /// The operand prefixing scheme round-trips any 32-bit operand
    /// through the decoder (§3.2.7: "operands can be extended to any
    /// length up to the length of the operand register").
    #[test]
    fn prefix_encoding_roundtrips(v in any::<i32>()) {
        let code = encode(Direct::LoadConstant, i64::from(v));
        prop_assert_eq!(code.len(), encoded_len(i64::from(v)));
        let decoded = transputer_asm::disassemble(&code);
        prop_assert_eq!(decoded.len(), 1);
        prop_assert_eq!(decoded[0].operand, i64::from(v));
        // Run it: the constant lands in A.
        let mut cpu = Cpu::new(CpuConfig::t424());
        let mut full = code;
        full.extend(transputer::instr::encode_op(transputer::instr::Op::HaltSimulation));
        cpu.load_boot_program(&full).unwrap();
        cpu.run(1_000).unwrap();
        prop_assert_eq!(cpu.areg(), v as u32);
    }

    /// Random expression trees, printed with the fewest parentheses the
    /// precedence table needs and again fully parenthesised, both parse
    /// back to the tree — up to 30 operators tall, where a fully
    /// parenthesised path (two levels an operator) reaches
    /// `occam::parser::MAX_NESTING`.
    #[test]
    fn precedence_round_trips(case in (any::<u64>(), 0u32..31)) {
        let (seed, height) = case;
        let tree = random_expr(&mut StdRng::seed_from_u64(seed), height);
        for full in [false, true] {
            let text = print(&tree, full);
            match occam::parse(&format!("x := {text}\n")) {
                Ok(Process::Assign(Lvalue::Name(_), parsed, _)) => {
                    prop_assert_eq!(&parsed, &tree, "{}", text);
                }
                other => prop_assert!(false, "{text}: {other:?}"),
            }
        }
    }

    /// Short operands use the minimal number of bytes.
    #[test]
    fn encoding_is_minimal(v in -4096i64..4096) {
        let len = encoded_len(v);
        let expected = if (0..16).contains(&v) {
            1
        } else if (-256..256).contains(&v) {
            2
        } else {
            3
        };
        prop_assert_eq!(len, expected);
    }

    /// Word arithmetic helpers agree with i64 arithmetic modulo the word.
    #[test]
    fn word_arithmetic_is_modular(a in any::<u32>(), b in any::<u32>()) {
        for w in [WordLength::Bits16, WordLength::Bits32] {
            let (am, bm) = (w.mask(a), w.mask(b));
            prop_assert_eq!(w.wrapping_add(am, bm), w.mask(am.wrapping_add(bm)));
            // Signed views agree modulo the word: from_signed inverts
            // to_signed.
            prop_assert_eq!(w.from_signed(w.to_signed(am)), am);
            // Wrapping subtraction matches signed subtraction re-wrapped.
            prop_assert_eq!(
                w.wrapping_sub(am, bm),
                w.from_signed(w.to_signed(am) - w.to_signed(bm))
            );
            // gt agrees with signed comparison.
            prop_assert_eq!(w.gt(am, bm), w.to_signed(am) > w.to_signed(bm));
            // after is antisymmetric for values that are not exactly
            // half the ring apart (where both differences look negative).
            let half = w.most_neg();
            if am != bm && w.wrapping_sub(am, bm) != half {
                prop_assert_ne!(w.after(am, bm), w.after(bm, am));
            }
        }
    }

    /// Link packets round-trip through their wire-bit representation.
    #[test]
    fn link_packets_roundtrip(byte in any::<u8>()) {
        let p = PacketKind::Data(byte);
        prop_assert_eq!(PacketKind::from_wire_bits(&p.wire_bits()), Some(p));
    }

    /// The occam compiler agrees with a reference evaluator on random
    /// expression trees (checked arithmetic stays in range by
    /// assumption).
    #[test]
    fn compiler_agrees_with_reference_on_expressions(e in arb_expr()) {
        let expected = e.eval();
        prop_assume!(expected.abs() < i64::from(i32::MAX));
        // Intermediates can overflow even when the result fits; bound
        // the whole tree conservatively.
        fn bounded(e: &E) -> bool {
            fn walk(e: &E) -> Option<i64> {
                let v = match e {
                    E::Lit(n) => *n,
                    E::Add(a, b) => walk(a)?.checked_add(walk(b)?)?,
                    E::Sub(a, b) => walk(a)?.checked_sub(walk(b)?)?,
                    E::Mul(a, b) => walk(a)?.checked_mul(walk(b)?)?,
                    E::BitAnd(a, b) | E::BitOr(a, b) | E::BitXor(a, b) => {
                        walk(a)?;
                        walk(b)?;
                        0
                    }
                };
                if v.abs() > i64::from(i32::MAX) {
                    None
                } else {
                    Some(v)
                }
            }
            walk(e).is_some()
        }
        prop_assume!(bounded(&e));
        let src = format!("VAR r:\nr := {}", e.occam());
        let program = occam::compile(&src).unwrap();
        let mut cpu = Cpu::new(CpuConfig::t424());
        let wptr = program.load(&mut cpu).unwrap();
        cpu.run(10_000_000).unwrap();
        let got = cpu.word_length().to_signed(
            program.read_global(&mut cpu, wptr, "r").unwrap()
        );
        prop_assert_eq!(got, i64::from(expected as i32));
    }

    /// Memory word writes read back exactly, for both word lengths.
    #[test]
    fn memory_roundtrips(offset in 0u32..512, value in any::<u32>()) {
        for config in [CpuConfig::t424(), CpuConfig::t222()] {
            let mut cpu = Cpu::new(config);
            let w = cpu.word_length();
            let addr = w.index_word(cpu.memory().mem_start(), offset);
            cpu.poke_word(addr, value).unwrap();
            prop_assert_eq!(cpu.peek_word(addr).unwrap(), w.mask(value));
            prop_assert_eq!(cpu.inspect_word(addr).unwrap(), w.mask(value));
        }
    }

    /// A message of any size crosses an internal channel intact.
    #[test]
    fn internal_channel_preserves_messages(payload in proptest::collection::vec(any::<u8>(), 1..64)) {
        use transputer::instr::{encode, encode_op, Op};
        use transputer::Priority;
        let n = payload.len() as u32;
        let mut cpu = Cpu::new(CpuConfig::t424());
        let mut code = Vec::new();
        // Receiver: chan at w1 := NotProcess; in(n, chan, w8); haltsim.
        code.extend(encode_op(Op::MinimumInteger));
        code.extend(encode(Direct::StoreLocal, 1));
        code.extend(encode(Direct::LoadLocalPointer, 8));
        code.extend(encode(Direct::LoadLocalPointer, 1));
        code.extend(encode(Direct::LoadConstant, i64::from(n)));
        code.extend(encode_op(Op::InputMessage));
        code.extend(encode_op(Op::HaltSimulation));
        let sender_entry = code.len();
        code.extend(encode(Direct::LoadLocalPointer, 8));
        code.extend(encode(Direct::LoadLocalPointer, 129));
        code.extend(encode(Direct::LoadConstant, i64::from(n)));
        code.extend(encode_op(Op::OutputMessage));
        code.extend(encode_op(Op::StopProcess));
        let entry = cpu.memory().mem_start();
        cpu.load(entry, &code).unwrap();
        let top = cpu.default_boot_workspace();
        let recv_w = top;
        let send_w = top.wrapping_sub(128 * 4);
        // Sender buffer at its w8.
        let src_addr = send_w.wrapping_add(8 * 4);
        for (i, b) in payload.iter().enumerate() {
            cpu.memory_mut().write_byte(src_addr + i as u32, *b).unwrap();
        }
        cpu.spawn(recv_w, entry, Priority::Low);
        cpu.spawn(send_w, entry + sender_entry as u32, Priority::Low);
        cpu.run(1_000_000).unwrap();
        let got = cpu
            .memory()
            .dump(recv_w.wrapping_add(8 * 4), payload.len())
            .unwrap();
        prop_assert_eq!(got, payload);
    }
}

/// `encoded_len` counts exactly what `encode` emits, at every power-of-two
/// edge of the 64-bit operand range.
#[test]
fn encoded_len_agrees_with_encode() {
    let edges = (0..63).flat_map(|k| {
        let p = 1i64 << k;
        [p - 1, p, p + 1, -p - 1, -p, 1 - p]
    });
    for v in edges.chain([i64::MIN, i64::MAX]) {
        assert_eq!(encoded_len(v), encode(Direct::LoadConstant, v).len(), "{v}");
    }
}
