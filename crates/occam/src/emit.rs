//! Instruction emission with label fixup.
//!
//! Transputer instruction operands are variable-length (prefix chains,
//! §3.2.7), so jump distances depend on instruction sizes which depend on
//! jump distances. The emitter records symbolic operands and relaxes
//! sizes iteratively to a fixpoint, only ever growing an instruction —
//! the standard assembler technique, which terminates because sizes are
//! monotone and bounded.
//!
//! All operands are expressed relative to instruction addresses, so the
//! generated code is position independent — one of the stated design
//! goals of the instruction set (§3.1: "program and workspaces may be
//! allocated anywhere in memory after compilation").

use transputer::instr::{encode_into, Direct, Op};

/// A forward-referencable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

impl Label {
    /// Index into the label-address table returned by
    /// [`Emitter::assemble_with_labels`].
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Symbolic operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Operand {
    /// A known constant.
    Imm(i64),
    /// `address(label) - end_address(anchor_item)`: the form needed by
    /// `jump`, `call`, `cj` (anchor = the instruction itself) and by
    /// `ldc` constants consumed by `ldpi`, `startp`, or `altend`
    /// (anchor = that later instruction).
    RelTo {
        label: Label,
        /// Item index of the anchor; the emitter patches this in when
        /// the anchor instruction is emitted.
        anchor: usize,
    },
    /// `end_address(anchor_item) - address(label)`: the positive
    /// backwards distance `loop end` subtracts from Iptr.
    BackTo {
        label: Label,
        /// Item index of the anchor instruction.
        anchor: usize,
    },
}

#[derive(Debug, Clone)]
enum Item {
    Insn { fun: Direct, operand: Operand },
    Operation(Op),
    Byte(u8),
    Mark(Label),
}

/// Handle to an instruction whose address anchors a relative constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Anchor(usize);

/// The emitter.
#[derive(Debug, Default)]
pub struct Emitter {
    items: Vec<Item>,
    label_count: usize,
    /// ldc items waiting for their anchor instruction index.
    pending_anchor_patches: Vec<(usize, usize)>,
}

impl Emitter {
    /// A fresh emitter.
    pub fn new() -> Emitter {
        Emitter::default()
    }

    /// Create an unplaced label.
    pub fn new_label(&mut self) -> Label {
        self.label_count += 1;
        Label(self.label_count - 1)
    }

    /// Place a label at the current position.
    pub fn place(&mut self, label: Label) {
        self.items.push(Item::Mark(label));
    }

    /// Emit a direct function with a constant operand.
    pub fn insn(&mut self, fun: Direct, operand: i64) {
        self.items.push(Item::Insn {
            fun,
            operand: Operand::Imm(operand),
        });
    }

    /// Emit a direct function whose operand is the distance to `label`
    /// from the end of this instruction (`jump`, `cj`, `call`).
    pub fn insn_rel(&mut self, fun: Direct, label: Label) {
        let idx = self.items.len();
        self.items.push(Item::Insn {
            fun,
            operand: Operand::RelTo { label, anchor: idx },
        });
    }

    /// Emit `ldc` of a code distance measured from the end of a *later*
    /// instruction (the one that consumes it: `ldpi`, `startp`,
    /// `altend`). Returns a token to pass to [`Emitter::bind_anchor`]
    /// when that instruction is emitted.
    pub fn ldc_rel(&mut self, label: Label) -> Anchor {
        let idx = self.items.len();
        self.items.push(Item::Insn {
            fun: Direct::LoadConstant,
            operand: Operand::RelTo {
                label,
                anchor: usize::MAX,
            },
        });
        Anchor(idx)
    }

    /// Emit `ldc` of the *backwards* distance from the end of a later
    /// anchor instruction to `label` — the positive loop displacement
    /// `loop end` subtracts from the instruction pointer.
    pub fn ldc_rel_back(&mut self, label: Label) -> Anchor {
        let idx = self.items.len();
        self.items.push(Item::Insn {
            fun: Direct::LoadConstant,
            operand: Operand::BackTo {
                label,
                anchor: usize::MAX,
            },
        });
        Anchor(idx)
    }

    /// Declare that the *next* emitted item is the anchor instruction for
    /// a pending [`Emitter::ldc_rel`].
    pub fn bind_anchor(&mut self, a: Anchor) {
        let next = self.items.len();
        self.pending_anchor_patches.push((a.0, next));
    }

    /// Emit an indirect function (`operate`, with prefixes as needed).
    pub fn op(&mut self, op: Op) {
        self.items.push(Item::Operation(op));
    }

    /// Emit one raw byte (the assembler's `.byte` and `.word`).
    pub fn byte(&mut self, b: u8) {
        self.items.push(Item::Byte(b));
    }

    /// Number of items emitted (for diagnostics).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Resolve all labels and produce the final byte stream.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never placed, or an anchor was
    /// never bound — compiler bugs, not user errors.
    pub fn assemble(self) -> Vec<u8> {
        self.assemble_with_labels().0
    }

    /// Like [`Emitter::assemble`], but also returns the resolved byte
    /// address of every label, indexed by creation order
    /// (`Label::index`). Labels that were never placed resolve to
    /// `usize::MAX`.
    pub fn assemble_with_labels(mut self) -> (Vec<u8>, Vec<usize>) {
        // Patch anchors.
        for (ldc_item, anchor_item) in std::mem::take(&mut self.pending_anchor_patches) {
            if let Item::Insn {
                operand: Operand::RelTo { anchor, .. } | Operand::BackTo { anchor, .. },
                ..
            } = &mut self.items[ldc_item]
            {
                *anchor = anchor_item;
            } else {
                panic!("anchor target is not an instruction");
            }
        }
        for item in &self.items {
            if let Item::Insn {
                operand: Operand::RelTo { anchor, .. } | Operand::BackTo { anchor, .. },
                ..
            } = item
            {
                assert_ne!(*anchor, usize::MAX, "unbound anchor");
            }
        }

        // Iterative relaxation: sizes only grow.
        let n = self.items.len();
        let mut sizes = vec![0usize; n];
        for (i, item) in self.items.iter().enumerate() {
            sizes[i] = match item {
                Item::Insn {
                    operand: Operand::Imm(v),
                    ..
                } => encoded_len_of(*v),
                Item::Insn { .. } => 1,
                Item::Operation(op) => encoded_len_of(op.code() as i64),
                Item::Byte(_) => 1,
                Item::Mark(_) => 0,
            };
        }
        let mut labels = vec![usize::MAX; self.label_count];
        let mut addr = vec![0usize; n + 1];
        loop {
            // Compute addresses.
            for i in 0..n {
                addr[i + 1] = addr[i] + sizes[i];
            }
            for (i, item) in self.items.iter().enumerate() {
                if let Item::Mark(l) = item {
                    labels[l.0] = addr[i];
                }
            }
            // Grow any instruction whose operand no longer fits.
            let mut changed = false;
            for (i, item) in self.items.iter().enumerate() {
                let value = match item {
                    Item::Insn {
                        operand: Operand::RelTo { label, anchor },
                        ..
                    } => {
                        let target = labels[label.0];
                        assert_ne!(target, usize::MAX, "label never placed");
                        target as i64 - addr[*anchor + 1] as i64
                    }
                    Item::Insn {
                        operand: Operand::BackTo { label, anchor },
                        ..
                    } => {
                        let target = labels[label.0];
                        assert_ne!(target, usize::MAX, "label never placed");
                        addr[*anchor + 1] as i64 - target as i64
                    }
                    _ => continue,
                };
                let need = encoded_len_of(value);
                if need > sizes[i] {
                    sizes[i] = need;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Final encode, at the addresses of the last (unchanged) pass.
        let mut out = Vec::with_capacity(addr[n]);
        for (i, item) in self.items.iter().enumerate() {
            let before = out.len();
            match item {
                Item::Mark(_) => {}
                Item::Byte(b) => out.push(*b),
                Item::Operation(op) => {
                    encode_into(Direct::Operate, op.code() as i64, &mut out);
                }
                Item::Insn { fun, operand } => {
                    let value = match operand {
                        Operand::Imm(v) => *v,
                        Operand::RelTo { label, anchor } => {
                            labels[label.0] as i64 - addr[*anchor + 1] as i64
                        }
                        Operand::BackTo { label, anchor } => {
                            addr[*anchor + 1] as i64 - labels[label.0] as i64
                        }
                    };
                    encode_into(*fun, value, &mut out);
                }
            }
            // Relaxation distances are monotone (growing any instruction
            // can only lengthen the span a relative operand covers), so
            // the reserved size is always exact.
            assert_eq!(
                out.len() - before,
                sizes[i],
                "relaxation reserved a different size than the final encoding"
            );
        }
        (out, labels)
    }
}

/// Encoded length of an operand (shared with `transputer::instr`).
fn encoded_len_of(v: i64) -> usize {
    transputer::instr::encoded_len(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_code() {
        let mut e = Emitter::new();
        e.insn(Direct::LoadConstant, 5);
        e.insn(Direct::AddConstant, 2);
        e.op(Op::HaltSimulation);
        let code = e.assemble();
        assert_eq!(&code[..2], &[0x45, 0x82]);
        assert_eq!(code.len(), 2 + 3);
    }

    #[test]
    fn forward_jump() {
        let mut e = Emitter::new();
        let end = e.new_label();
        e.insn_rel(Direct::Jump, end);
        e.insn(Direct::LoadConstant, 1);
        e.place(end);
        e.op(Op::HaltSimulation);
        let code = e.assemble();
        // j 1 (skip the 1-byte ldc).
        assert_eq!(code[0], 0x01);
    }

    #[test]
    fn backward_jump() {
        let mut e = Emitter::new();
        let top = e.new_label();
        e.place(top);
        e.insn(Direct::LoadConstant, 1);
        e.insn_rel(Direct::Jump, top);
        let code = e.assemble();
        // Backward distance: from end of j to top = -(1 + len(j)).
        // j encodes as nfix+j (2 bytes): distance -3.
        assert_eq!(code.len(), 3);
        assert_eq!(code[1], 0x60);
        assert_eq!(code[2], 0x0D); // j with nibble 0xD: ~(0x0D) under nfix 0 = -3
    }

    #[test]
    fn long_forward_jump_relaxes() {
        let mut e = Emitter::new();
        let end = e.new_label();
        e.insn_rel(Direct::Jump, end);
        for _ in 0..100 {
            e.insn(Direct::LoadConstant, 1);
        }
        e.place(end);
        e.op(Op::HaltSimulation);
        let code = e.assemble();
        // 100 > 15, so the jump needs a prefix: pfix 6, j 4 → 0x64.
        assert_eq!(code[0], 0x26);
        assert_eq!(code[1], 0x04);
        assert_eq!(code.len(), 2 + 100 + 3);
    }

    #[test]
    fn anchored_constant() {
        // ldc (label - after ldpi); ldpi computes an absolute address.
        let mut e = Emitter::new();
        let target = e.new_label();
        let a = e.ldc_rel(target);
        e.bind_anchor(a);
        e.op(Op::LoadPointerToInstruction);
        e.insn(Direct::LoadConstant, 7);
        e.place(target);
        e.op(Op::HaltSimulation);
        let code = e.assemble();
        // ldc distance = 1 (the ldc 7 byte) -> 0x41, ldpi (2 bytes).
        assert_eq!(code[0], 0x41);
    }

    #[test]
    fn labels_at_same_point_share_address() {
        let mut e = Emitter::new();
        let l1 = e.new_label();
        let l2 = e.new_label();
        e.place(l1);
        e.place(l2);
        e.insn_rel(Direct::Jump, l1);
        let code = e.assemble();
        assert_eq!(code.len(), 2); // nfix + j backwards
    }
}
