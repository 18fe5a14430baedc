//! Print the I1 instruction-set reference: every direct and indirect
//! function with its encoding, cycle cost and published name — ISA.md
//! above its hand-written `## Static guarantees` (CI diffs the two).
//!
//! ```sh
//! cargo run -p transputer-bench --bin isa_reference
//! ```

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::timing;
use transputer::WordLength;

fn hex(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| format!("{b:02X}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    println!("# The I1 instruction set, as modelled");
    println!();
    println!(
        "Every instruction is one byte: a 4-bit function and a 4-bit datum \
         (§3.2.5); `prefix`/`negative prefix` extend operands, `operate` \
         reaches the indirect functions (§3.2.8). Cycle entries marked * \
         are operand- or state-dependent; see `transputer::timing`."
    );
    println!();
    println!("## Direct functions");
    println!();
    println!("| code | mnemonic | full name | cycles |");
    println!("|---|---|---|---|");
    for d in Direct::ALL {
        let cycles = match d {
            Direct::Operate => "(per operation)".to_string(),
            Direct::ConditionalJump => format!(
                "{} taken / {} not",
                timing::CONDITIONAL_JUMP_TAKEN,
                d.cycles()
            ),
            _ => d.cycles().to_string(),
        };
        println!(
            "| #{:X} | `{}` | {} | {} |",
            d.nibble(),
            d.mnemonic(),
            d.full_name(),
            cycles
        );
    }
    println!();
    println!("## Indirect functions (via `operate`)");
    println!();
    println!("| code | encoding | mnemonic | full name | cycles |");
    println!("|---|---|---|---|---|");
    for op in Op::ALL {
        if op == Op::HaltSimulation {
            continue; // emulator extension, listed separately
        }
        let cycles = match op.fixed_cycles() {
            Some(c) => c.to_string(),
            None => match op {
                Op::Multiply => format!(
                    "{} (seq. total {} = 7+wordlength)",
                    timing::multiply_cycles(WordLength::Bits32),
                    timing::multiply_sequence_cycles(WordLength::Bits32)
                ),
                Op::Divide => timing::divide_cycles(WordLength::Bits32).to_string(),
                Op::Remainder => timing::remainder_cycles(WordLength::Bits32).to_string(),
                Op::InputMessage | Op::OutputMessage | Op::OutputByte | Op::OutputWord => {
                    "max(24, 21+8n/wordlength) total*".to_string()
                }
                _ => "*".to_string(),
            },
        };
        println!(
            "| #{:02X} | `{}` | `{}` | {} | {} |",
            op.code(),
            hex(&encode_op(op)),
            op.mnemonic(),
            op.full_name(),
            cycles
        );
    }
    println!();
    println!("## Emulator extension");
    println!();
    println!(
        "| #17F | `{}` | `haltsim` | halt simulation | 1 | cleanly ends a hosted run |",
        hex(&encode_op(Op::HaltSimulation))
    );
    println!();
    println!("## Prefixing examples (§3.2.7)");
    println!();
    println!("| operand | `ldc` encoding |");
    println!("|---|---|");
    for v in [
        0i64,
        15,
        16,
        0x754,
        255,
        256,
        -1,
        -256,
        -257,
        i32::MAX as i64,
    ] {
        println!(
            "| {v} (#{v:X}) | `{}` |",
            hex(&encode(Direct::LoadConstant, v))
        );
    }
}
