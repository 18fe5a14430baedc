//! Disassembler: byte streams back to instruction listings.

use transputer::instr::{self, Insn};

/// One decoded logical instruction (a prefix chain folded into the
/// instruction it extends, as the architecture intends — §3.2.7). Its
/// `Display` is the listing form, its `full_name` the published one;
/// its bytes are `code[d.offset..d.end()]`.
pub type Decoded = Insn;

/// Decode a byte stream into logical instructions. Decoding always
/// succeeds — undefined operations are reported in the listing rather
/// than failing, since any byte sequence is decodable as instructions.
pub fn disassemble(code: &[u8]) -> Vec<Decoded> {
    // An instruction is at least a byte: one allocation holds them all.
    let mut insns = Vec::with_capacity(code.len());
    insns.extend(instr::decode(code));
    insns
}

/// One listing line: offset, the instruction's bytes in hex, and its
/// text (`ldc #754` or, with `full_names`, `load constant #754`).
pub fn listing_line(code: &[u8], d: &Decoded, full_names: bool) -> String {
    use std::fmt::Write as _;
    let mut bytes = String::new();
    for b in &code[d.offset..d.end()] {
        let sep = if bytes.is_empty() { "" } else { " " };
        let _ = write!(bytes, "{sep}{b:02X}");
    }
    let text = if full_names {
        d.full_name()
    } else {
        d.to_string()
    };
    format!("{:06X}  {bytes:<12} {text}", d.offset)
}

/// Render a full listing with offsets and bytes, one instruction per
/// line — handy for debugging compiler output.
pub fn listing(code: &[u8]) -> String {
    instr::decode(code)
        .map(|d| listing_line(code, &d, false) + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer::instr::{encode, encode_op, Direct, Op};

    #[test]
    fn simple_decode() {
        let d = disassemble(&[0x45, 0x82, 0xD1]);
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].fun, Direct::LoadConstant);
        assert_eq!(d[0].operand, 5);
        assert_eq!(d[1].fun, Direct::AddConstant);
        assert_eq!(d[2].to_string(), "stl 1");
    }

    #[test]
    fn prefix_chains_fold() {
        let code = encode(Direct::LoadConstant, 0x754);
        let d = disassemble(&code);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].operand, 0x754);
        assert_eq!(d[0].len, 3);
        assert_eq!(d[0].to_string(), "ldc #754");
    }

    #[test]
    fn negative_operands() {
        let code = encode(Direct::Jump, -3);
        let d = disassemble(&code);
        assert_eq!(d[0].operand, -3);
        assert_eq!(d[0].to_string(), "j -3");
        let wide = disassemble(&encode(Direct::LoadConstant, -0x754));
        assert_eq!(wide[0].to_string(), "ldc -#754");
    }

    #[test]
    fn operations_decode() {
        let code = encode_op(Op::Multiply);
        let d = disassemble(&code);
        assert_eq!(d[0].op, Some(Op::Multiply));
        assert_eq!(d[0].to_string(), "mul");
        assert_eq!(d[0].full_name(), "multiply");
    }

    #[test]
    fn undefined_operation_reported() {
        let d = disassemble(&[0xF1]); // opr 1? 0xF1 = opr 1: defined (lb)
        assert_eq!(d[0].op, Some(Op::LoadByte));
        let d = disassemble(&[0x21, 0xF1]); // opr 0x11: undefined
        assert_eq!(d[0].op, None);
        assert_eq!(d[0].to_string(), "opr #11");
        assert_eq!(d[0].full_name(), "operate #11");
        // A negative one lists as the word it is, which reads back.
        let code = encode(Direct::Operate, -300);
        assert_eq!(disassemble(&code)[0].to_string(), "opr #FFFFFED4");
        assert_eq!(crate::assemble("opr #FFFFFED4"), Ok(code));
    }

    #[test]
    fn listing_contains_offsets() {
        let code = [0x45u8, 0x82, 0x27, 0x25, 0x44];
        assert_eq!(
            listing(&code),
            "000000  45           ldc 5\n\
             000001  82           adc 2\n\
             000002  27 25 44     ldc #754\n"
        );
        let d = disassemble(&code);
        assert_eq!(
            listing_line(&code, &d[2], true),
            "000002  27 25 44     load constant #754"
        );
    }

    #[test]
    fn full_names() {
        let d = disassemble(&[0x45]);
        assert_eq!(d[0].full_name(), "load constant 5");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]
        /// The disassembler and the verifier read any bytes as the same
        /// instructions; prefix bytes are weighted in so that chains
        /// longer than the 32-bit Oreg occur.
        #[test]
        fn disassembler_and_verifier_decode_alike(
            code in proptest::collection::vec(
                proptest::prop_oneof![
                    3 => 0x20u8..0x30,
                    1 => 0x60u8..0x70,
                    2 => proptest::arbitrary::any::<u8>(),
                ],
                0..40,
            )
        ) {
            let listed: Vec<_> = disassemble(&code)
                .into_iter()
                .map(|d| (d.offset, d.len, d.fun, d.operand, d.op))
                .collect();
            let verified: Vec<_> = transputer_analysis::verifier::decode(&code, &mut Vec::new())
                .into_iter()
                .map(|i| (i.offset, i.len, i.fun, i.operand, i.op))
                .collect();
            proptest::prop_assert_eq!(listed, verified);
        }
    }
}
