//! # transputer-asm
//!
//! Assembler and disassembler for the I1 instruction set.
//!
//! The paper notes that "it is not common practice to abbreviate the
//! names of the instructions, or to use mnemonics ... using full names
//! aids readability" (§3.1). The assembler therefore accepts both the
//! published full names and the conventional short mnemonics:
//!
//! ```
//! use transputer_asm::assemble;
//!
//! let a = assemble(
//!     "load constant 0\n\
//!      store local 1",
//! )?;
//! let b = assemble("ldc 0\nstl 1")?;
//! assert_eq!(a, b);
//! # Ok::<(), transputer_asm::AsmError>(())
//! ```
//!
//! Labels (`name:`) and label operands (`@name`) are supported for the
//! jump, conditional-jump and call instructions, with operands measured
//! — as the hardware requires — from the end of the instruction, and
//! sized by iterative relaxation: statements are lowered through the
//! occam compiler's own emitter.

#![forbid(unsafe_code)]

pub mod dis;

pub use dis::{disassemble, Decoded};

use std::collections::HashMap;
use std::fmt;

use occam::emit::{Emitter, Label};
use transputer::instr::{Direct, Op};

/// Assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "assembly error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: u32, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Assemble a program.
///
/// One statement per line; `--` or `;` starts a comment. A statement is:
/// a label (`name:`), a byte directive (`.byte n`), or an instruction —
/// a full name or mnemonic, with a numeric operand (decimal, `#hex` or
/// `0xhex` after at most one `-`, a 32-bit word) for the direct
/// functions, or `@label` for `j`, `cj` and `call`.
///
/// # Errors
///
/// Returns [`AsmError`] for unknown instructions, malformed operands or
/// undefined labels.
pub fn assemble(source: &str) -> Result<Vec<u8>, AsmError> {
    // Tables from the instruction definitions: longest names first so
    // "load non local pointer" wins over "load non local".
    let mut directs: Vec<(String, Direct)> = Direct::ALL
        .iter()
        .flat_map(|d| {
            [
                (d.full_name().to_string(), *d),
                (d.mnemonic().to_string(), *d),
            ]
        })
        .collect();
    directs.sort_by_key(|(n, _)| std::cmp::Reverse(n.len()));
    let ops: HashMap<String, Op> = Op::ALL
        .iter()
        .flat_map(|o| {
            [
                (o.full_name().to_string(), *o),
                (o.mnemonic().to_string(), *o),
            ]
        })
        .collect();

    let mut out = Emitter::new();
    // Each label by name, and whether it is placed; each `@label` use by
    // line, so an undefined label is refused before the emitter, which
    // would panic on it, assembles.
    let mut labels: HashMap<String, (Label, bool)> = HashMap::new();
    let mut uses: Vec<(u32, String)> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let text = raw
            .split("--")
            .next()
            .unwrap_or("")
            .split(';')
            .next()
            .unwrap_or("")
            .trim();
        if text.is_empty() {
            continue;
        }
        if let Some(label) = text.strip_suffix(':') {
            let label = label.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                return Err(err(line_no, format!("malformed label `{label}`")));
            }
            let entry = labels
                .entry(label.to_string())
                .or_insert_with(|| (out.new_label(), false));
            entry.1 = true;
            out.place(entry.0);
            continue;
        }
        if let Some(rest) = text.strip_prefix(".byte") {
            let v = parse_number(rest.trim(), line_no)?;
            if !(0..=255).contains(&v) {
                return Err(err(line_no, format!("byte value {v} out of range")));
            }
            out.byte(v as u8);
            continue;
        }
        if let Some(rest) = text.strip_prefix(".word") {
            // Little-endian 32-bit datum, as the memory stores words.
            let v = parse_number(rest.trim(), line_no)?;
            for b in (v as u32).to_le_bytes() {
                out.byte(b);
            }
            continue;
        }
        // Try direct functions (longest name first), expecting an
        // operand after the name.
        let lower_text = text.to_ascii_lowercase();
        let mut matched = false;
        for (name, fun) in &directs {
            if let Some(rest) = lower_text.strip_prefix(name.as_str()) {
                if !rest.is_empty() && !rest.starts_with(' ') {
                    continue; // prefix of a longer word
                }
                let rest = rest.trim();
                if let Some(label) = rest.strip_prefix('@') {
                    if !matches!(fun, Direct::Jump | Direct::ConditionalJump | Direct::Call) {
                        return Err(err(
                            line_no,
                            "label operands are only supported on jump, conditional jump and call",
                        ));
                    }
                    let label = label.trim();
                    let entry = labels
                        .entry(label.to_string())
                        .or_insert_with(|| (out.new_label(), false));
                    out.insn_rel(*fun, entry.0);
                    uses.push((line_no, label.to_string()));
                } else if rest.is_empty() {
                    return Err(err(line_no, format!("`{name}` needs an operand")));
                } else {
                    out.insn(*fun, parse_number(rest, line_no)?);
                }
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        // Operations take no operand.
        if let Some(op) = ops.get(&lower_text) {
            out.op(*op);
            continue;
        }
        return Err(err(line_no, format!("unknown instruction `{text}`")));
    }
    if let Some((line, name)) = uses.iter().find(|(_, name)| !labels[name].1) {
        return Err(err(*line, format!("undefined label `{name}`")));
    }
    Ok(out.assemble())
}

/// An operand as the target word holds it: decimal, `#hex` or `0xhex`
/// digits after at most one `-`, whose value lies in −2^31 … 2^32 − 1.
/// A value in the unsigned upper half (`#FFFFFFFF`) is the bit pattern it
/// spells, read as a signed word.
fn parse_number(s: &str, line: u32) -> Result<i64, AsmError> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b.trim_start()),
        None => (false, s),
    };
    let (digits, radix) = match body.strip_prefix('#').or(body.strip_prefix("0x")) {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    // `from_str_radix` would take a sign of its own.
    let v = Some(digits)
        .filter(|d| d.starts_with(|c: char| c.is_ascii_hexdigit()))
        .and_then(|d| i64::from_str_radix(d, radix).ok())
        .ok_or_else(|| err(line, format!("malformed number `{s}`")))?;
    let v = if neg { -v } else { v };
    if !(-(1 << 31)..1 << 32).contains(&v) {
        return Err(err(line, format!("`{s}` does not fit a 32-bit word")));
    }
    Ok(i64::from(v as u32 as i32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_names_and_mnemonics_agree() {
        let a = assemble("load constant 5\nadd constant 2\nstore local 1").unwrap();
        let b = assemble("ldc 5\nadc 2\nstl 1").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, vec![0x45, 0x82, 0xD1]);
    }

    #[test]
    fn operations() {
        let code = assemble("add\nmultiply\ninput message").unwrap();
        assert_eq!(code, vec![0xF5, 0x25, 0xF3, 0xF7]);
    }

    #[test]
    fn prefix_encoding() {
        // The paper's #754 example.
        let code = assemble("load constant #754").unwrap();
        assert_eq!(code, vec![0x27, 0x25, 0x44]);
        let neg = assemble("ldc -1").unwrap();
        assert_eq!(neg, vec![0x60, 0x4F]);
    }

    #[test]
    fn labels_and_jumps() {
        let code = assemble(
            "ldc 0\n\
             loop:\n\
             adc 1\n\
             j @loop",
        )
        .unwrap();
        // adc 1 (1 byte) + j back: distance -(1+2) = -3 → nfix, j.
        assert_eq!(code, vec![0x40, 0x81, 0x60, 0x0D]);
    }

    #[test]
    fn forward_label() {
        let code = assemble("cj @end\nldc 1\nend:\nhaltsim").unwrap();
        assert_eq!(code[0], 0xA1, "cj skips the 1-byte ldc");
    }

    #[test]
    fn comments_and_blank_lines() {
        let code = assemble("-- a comment\nldc 1 ; trailing\n\n").unwrap();
        assert_eq!(code, vec![0x41]);
    }

    #[test]
    fn byte_directive() {
        assert_eq!(assemble(".byte 255\n.byte #10").unwrap(), vec![0xFF, 0x10]);
    }

    #[test]
    fn word_directive_is_little_endian() {
        assert_eq!(
            assemble(".word #01020304").unwrap(),
            vec![0x04, 0x03, 0x02, 0x01]
        );
        assert_eq!(assemble(".word -1").unwrap(), vec![0xFF; 4]);
        assert!(assemble(".word 4294967296").is_err());
    }

    #[test]
    fn operands_are_target_words() {
        // The unsigned upper half is the bit pattern it spells.
        assert_eq!(assemble("ldc #FFFFFFFF"), assemble("ldc -1"));
        assert_eq!(assemble("ldc 4294967295"), assemble("ldc -1"));
        assert_eq!(assemble("ldc 2147483648"), assemble("ldc -2147483648"));
        assert_eq!(assemble("ldc - #10"), assemble("ldc -16"));
        // One sign, a word's range, and digits straight after the sign.
        for text in [
            "ldc - -5",
            "ldc - -9223372036854775808",
            "ldc 4294967296",
            "ldc -2147483649",
            "ldc +5",
            "ldc #-5",
            "ldc 0x+5",
        ] {
            let e = assemble(&format!("ldc 0\n{text}")).expect_err(text);
            assert_eq!(e.line, 2, "{text}: {e}");
        }
    }

    #[test]
    fn longest_name_wins() {
        // "load non local pointer 1" must not parse as "load non local".
        let a = assemble("load non local pointer 1").unwrap();
        let b = assemble("ldnlp 1").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, vec![0x51]);
    }

    #[test]
    fn errors() {
        assert!(assemble("frobnicate 1").is_err());
        assert!(assemble("ldc").is_err());
        assert!(assemble("ldc zork").is_err());
        assert!(assemble("j @nowhere").is_err());
        assert!(assemble(".byte 300").is_err());
        assert!(
            assemble("ldc @label\nlabel:").is_err(),
            "ldc rejects labels"
        );
    }

    #[test]
    fn assembled_code_runs() {
        use transputer::{Cpu, CpuConfig};
        let code = assemble(
            "ldc 6\n\
             ldc 7\n\
             multiply\n\
             haltsim",
        )
        .unwrap();
        let mut cpu = Cpu::new(CpuConfig::t424());
        cpu.load_boot_program(&code).unwrap();
        cpu.run(10_000).unwrap();
        assert_eq!(cpu.areg(), 42);
    }

    #[test]
    fn every_row_round_trips_through_the_tools() {
        use transputer::instr::{encode, encode_op};
        for op in Op::ALL {
            assert_eq!(Op::from_code(op.code()), Some(op));
            for name in [op.mnemonic(), op.full_name()] {
                assert_eq!(assemble(name), Ok(encode_op(op)), "`{name}`");
            }
            let shown = crate::disassemble(&encode_op(op))[0].to_string();
            assert_eq!(shown, op.mnemonic());
        }
        for d in Direct::ALL {
            assert_eq!(Direct::from_nibble(d.nibble()), d);
            if matches!(d, Direct::Prefix | Direct::NegativePrefix) {
                continue;
            }
            for name in [d.mnemonic(), d.full_name()] {
                let text = format!("{name} 17");
                assert_eq!(assemble(&text), Ok(encode(d, 17)), "`{text}`");
            }
            // `opr 17` is an undefined operation, listed as `opr #11`.
            let shown = crate::disassemble(&encode(d, 17))[0].to_string();
            assert!(shown.starts_with(&format!("{} ", d.mnemonic())), "{shown}");
        }
    }

    #[test]
    fn roundtrip_through_disassembler() {
        let code = assemble("ldc #754\nstl 1\nldl 1\nadc 2\nmul\nhaltsim").unwrap();
        let decoded = crate::disassemble(&code);
        let text: Vec<String> = decoded.iter().map(|d| d.to_string()).collect();
        let reassembled = assemble(&text.join("\n")).unwrap();
        assert_eq!(code, reassembled);
    }
}
