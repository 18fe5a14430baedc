//! Disassembler: byte streams back to instruction listings.

use std::fmt;

use transputer::instr::{self, Direct, Op};

/// One decoded logical instruction (a prefix chain folded into the
/// instruction it extends, as the architecture intends — §3.2.7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// Byte offset of the first (prefix) byte.
    pub offset: usize,
    /// The raw bytes.
    pub bytes: Vec<u8>,
    /// The final function code.
    pub fun: Direct,
    /// The accumulated operand (sign-extended from 32 bits).
    pub operand: i64,
    /// For `operate`: the decoded operation, if defined.
    pub op: Option<Op>,
}

impl Decoded {
    /// Render with full published names instead of mnemonics.
    pub fn full_name(&self) -> String {
        match (self.fun, self.op) {
            (Direct::Operate, Some(op)) => op.full_name().to_string(),
            (Direct::Operate, None) => format!("operate #{:X}", self.operand),
            (fun, _) => format!("{} {}", fun.full_name(), format_operand(self.operand)),
        }
    }
}

impl fmt::Display for Decoded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.fun, self.op) {
            (Direct::Operate, Some(op)) => f.write_str(op.mnemonic()),
            (Direct::Operate, None) => write!(f, "opr #{:X}", self.operand),
            (fun, _) => write!(f, "{} {}", fun.mnemonic(), format_operand(self.operand)),
        }
    }
}

fn format_operand(v: i64) -> String {
    if (-255..=255).contains(&v) {
        format!("{v}")
    } else {
        // Wide operands read better in hex (addresses, magic values).
        if v < 0 {
            format!("-#{:X}", -v)
        } else {
            format!("#{v:X}")
        }
    }
}

/// Decode a byte stream into logical instructions. Decoding always
/// succeeds — undefined operations are reported in the listing rather
/// than failing, since any byte sequence is decodable as instructions.
pub fn disassemble(code: &[u8]) -> Vec<Decoded> {
    instr::decode(code)
        .map(|insn| Decoded {
            offset: insn.offset,
            bytes: code[insn.offset..insn.end()].to_vec(),
            fun: insn.fun,
            operand: insn.operand,
            op: insn.op,
        })
        .collect()
}

/// Render a full listing with offsets and bytes, one instruction per
/// line — handy for debugging compiler output.
pub fn listing(code: &[u8]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    for d in disassemble(code) {
        let bytes: Vec<String> = d.bytes.iter().map(|b| format!("{b:02X}")).collect();
        let _ = writeln!(s, "{:06X}  {:<12} {}", d.offset, bytes.join(" "), d);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer::instr::{encode, encode_op};

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
        assert_eq!(d[0].bytes.len(), 3);
        assert_eq!(d[0].to_string(), "ldc #754");
    }

    #[test]
    fn negative_operands() {
        let code = encode(Direct::Jump, -3);
        let d = disassemble(&code);
        assert_eq!(d[0].operand, -3);
        assert_eq!(d[0].to_string(), "j -3");
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
        assert!(d[0].to_string().contains("opr"));
    }

    #[test]
    fn listing_contains_offsets() {
        let code = [0x45u8, 0x82];
        let text = listing(&code);
        assert!(text.contains("000000"));
        assert!(text.contains("ldc 5"));
        assert!(text.contains("adc 2"));
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
                .map(|d| (d.offset, d.bytes.len(), d.fun, d.operand, d.op))
                .collect();
            let verified: Vec<_> = transputer_analysis::verifier::decode(&code, &mut Vec::new())
                .into_iter()
                .map(|i| (i.offset, i.len, i.fun, i.operand, i.op))
                .collect();
            proptest::prop_assert_eq!(listed, verified);
        }
    }
}
