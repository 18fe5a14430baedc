//! The occam workload corpus.
//!
//! A set of small but non-trivial programs used by the dynamic-behaviour
//! experiments: instruction encoding density (E12), execution rate (E13),
//! word-length independence (E15), and the compiler benchmarks. Each
//! program leaves a checkable result in a named top-level variable.
//!
//! The eight [`CORPUS`] sources are the files
//! `benchmark/workloads/corpus/<stem>.occ` the system benchmark runs,
//! taken in at compile time; `expected.txt` beside them restates each
//! result, and a test holds it to the values here. The three programs
//! of the static-model corpus alone live in this file.

/// One corpus program.
#[derive(Debug, Clone, Copy)]
pub struct CorpusItem {
    /// Short name for reports.
    pub name: &'static str,
    /// Occam source.
    pub source: &'static str,
    /// Top-level variable holding the result.
    pub check_global: &'static str,
    /// Expected value.
    pub expected: i64,
    /// Whether every intermediate value fits a 16-bit word, so the
    /// program behaves identically on the T222 (§3.3's independence
    /// claim excludes "overflow conditions resulting from word length
    /// dependencies").
    pub word16_safe: bool,
}

/// Sieve of Eratosthenes: count primes below 100.
pub const SIEVE: CorpusItem = CorpusItem {
    name: "sieve",
    source: include_str!("../../../benchmark/workloads/corpus/sieve.occ"),
    check_global: "count",
    expected: 25,
    word16_safe: true,
};

/// Bubble sort of a pseudo-random vector; result = checksum of sorted
/// order.
pub const SORT: CorpusItem = CorpusItem {
    name: "bubble-sort",
    source: include_str!("../../../benchmark/workloads/corpus/sort.occ"),
    check_global: "check",
    expected: {
        // Reference computation mirrored in Rust.
        const N: usize = 24;
        let mut v = [0i64; N];
        let mut seed = 12345i64;
        let mut i = 0;
        while i < N {
            seed = (seed * 75 + 74) % 65537;
            v[i] = seed;
            i += 1;
        }
        let mut pass = 0;
        while pass < N {
            let mut j = 0;
            while j + 1 < N {
                if v[j] > v[j + 1] {
                    let t = v[j];
                    v[j] = v[j + 1];
                    v[j + 1] = t;
                }
                j += 1;
            }
            pass += 1;
        }
        let mut check = 0i64;
        let mut k = 0;
        while k < N {
            check = (check * 31 + v[k]) % 100000;
            k += 1;
        }
        check
    },
    // Seeds range over 0..65537: comparisons differ on a 16-bit part.
    word16_safe: false,
};

/// Iterative Fibonacci.
pub const FIB: CorpusItem = CorpusItem {
    name: "fibonacci",
    source: include_str!("../../../benchmark/workloads/corpus/fib.occ"),
    check_global: "fib",
    expected: 832_040,
    // The 30th Fibonacci number overflows 16 bits.
    word16_safe: false,
};

/// Greatest common divisor by repeated remainder.
pub const GCD: CorpusItem = CorpusItem {
    name: "gcd",
    source: include_str!("../../../benchmark/workloads/corpus/gcd.occ"),
    check_global: "g",
    expected: 231,
    word16_safe: true,
};

/// Producer/consumer pipeline over internal channels.
pub const PIPELINE: CorpusItem = CorpusItem {
    name: "pipeline",
    source: include_str!("../../../benchmark/workloads/corpus/pipeline.occ"),
    check_global: "total",
    expected: {
        // Sum of squares 1..=20.
        let mut s = 0i64;
        let mut x = 1i64;
        while x <= 20 {
            s += x * x;
            x += 1;
        }
        s
    },
    word16_safe: true,
};

/// Small dense matrix multiply (4x4).
pub const MATMUL: CorpusItem = CorpusItem {
    name: "matmul",
    source: include_str!("../../../benchmark/workloads/corpus/matmul.occ"),
    check_global: "check",
    expected: {
        let mut a = [0i64; 16];
        let mut b = [0i64; 16];
        let mut c = [0i64; 16];
        let mut i = 0;
        while i < 16 {
            a[i] = i as i64 + 1;
            b[i] = 16 - i as i64;
            i += 1;
        }
        let mut s = 0i64;
        let mut r = 0;
        while r < 4 {
            let mut col = 0;
            while col < 4 {
                let mut acc = 0;
                let mut k = 0;
                while k < 4 {
                    acc += a[r * 4 + k] * b[k * 4 + col];
                    k += 1;
                }
                c[r * 4 + col] = acc;
                col += 1;
            }
            r += 1;
        }
        let mut t = 0;
        while t < 16 {
            s += c[t];
            t += 1;
        }
        s
    },
    word16_safe: true,
};

/// Worker farm: replicated PAR over a channel vector.
pub const FARM: CorpusItem = CorpusItem {
    name: "farm",
    source: include_str!("../../../benchmark/workloads/corpus/farm.occ"),
    check_global: "total",
    expected: 100 + 200 + 1 + 300 + 2 + 400 + 3,
    word16_safe: true,
};

/// Byte-wise checksum: packs values into a word vector with `BYTE`
/// subscripts and folds them (exercises `load byte`/`store byte`).
pub const BYTESUM: CorpusItem = CorpusItem {
    name: "byte-checksum",
    source: include_str!("../../../benchmark/workloads/corpus/bytesum.occ"),
    check_global: "check",
    expected: {
        let mut check = 0i64;
        let mut i = 0i64;
        while i < 32 {
            let b = (i * 37) & 0xFF;
            check = ((check << 1) + b) % 65521;
            i += 1;
        }
        check
    },
    // Byte subscripts are inherently word-length dependent: eight words
    // hold 32 bytes on a T424 but only 16 on a T222 (and the checksum
    // modulus exceeds the 16-bit range) — a concrete illustration of
    // §3.3's overflow caveat.
    word16_safe: false,
};

/// The whole corpus.
pub const CORPUS: &[CorpusItem] = &[SIEVE, SORT, FIB, GCD, PIPELINE, MATMUL, FARM, BYTESUM];

/// Horner polynomial evaluation: counted loops, multiply, subscripts.
/// `acc := acc*3 + c[i]` over `c = [2,3,4,5,6]`.
pub const POLY: CorpusItem = CorpusItem {
    name: "poly",
    source: "\
VAR c[5], acc, y:
SEQ
  SEQ i = [0 FOR 5]
    c[i] := i + 2
  acc := 0
  SEQ i = [0 FOR 5]
    acc := (acc * 3) + c[i]
  y := acc",
    check_global: "y",
    expected: 300,
    word16_safe: true,
};

/// Constant-distance shifts in a counted loop (the shift count is an
/// immediate, so `shl`/`shr` timing is statically known).
pub const SHIFTS: CorpusItem = CorpusItem {
    name: "shifts",
    source: "\
VAR x, y:
SEQ
  x := 1
  SEQ i = [0 FOR 5]
    x := (x << 2) + 1
  y := x >> 3",
    check_global: "y",
    expected: 1365 >> 3,
    word16_safe: true,
};

/// Division and remainder folded over a counted loop.
pub const DIVSUM: CorpusItem = CorpusItem {
    name: "divsum",
    source: "\
VAR s:
SEQ
  s := 0
  SEQ i = [0 FOR 10]
    s := (s + (((i * 7) + 5) / 3)) + (((i * 11) + 2) \\ 4)",
    check_global: "s",
    expected: {
        let mut s = 0i64;
        let mut i = 0i64;
        while i < 10 {
            s += ((i * 7) + 5) / 3 + ((i * 11) + 2) % 4;
            i += 1;
        }
        s
    },
    word16_safe: true,
};

/// The compute-class programs whose cycle counts the static cost model
/// ([`transputer_analysis::cost`]) must predict: straight-line or
/// counted-loop kernels with no data-dependent control flow or timing.
/// `lint_corpus` runs the model against the emulator over this list and
/// gates on ≤5 % error; the result lands in BENCH_host.json's
/// `"static_model"` section. `FIB` and `MATMUL` come from the main
/// corpus; the other three widen the instruction coverage (multiply,
/// constant shifts, divide/remainder) without touching `CORPUS` — the
/// benchmark fingerprints are derived from `CORPUS` and must not move.
pub const STATIC_MODEL_CORPUS: &[CorpusItem] = &[FIB, MATMUL, POLY, SHIFTS, DIVSUM];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_nonempty_and_named() {
        assert!(CORPUS.len() >= 5);
        for item in CORPUS {
            assert!(!item.name.is_empty());
            assert!(!item.source.is_empty());
        }
    }

    /// `expected.txt` names, for each `<stem>.occ`, the same result
    /// variable and value as the item that includes the file.
    #[test]
    fn expected_txt_matches_the_corpus() {
        let stems = [
            "sieve", "sort", "fib", "gcd", "pipeline", "matmul", "farm", "bytesum",
        ];
        let want: Vec<String> = stems
            .iter()
            .zip(CORPUS)
            .map(|(stem, item)| format!("{stem} {} {}", item.check_global, item.expected))
            .collect();
        let file = include_str!("../../../benchmark/workloads/corpus/expected.txt");
        let got: Vec<&str> = file.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn static_model_corpus_computes_expected_values() {
        for item in STATIC_MODEL_CORPUS {
            let (program, mut cpu, wptr) =
                crate::run_occam(item.source, transputer::CpuConfig::t424());
            let got = program
                .read_global(&mut cpu, wptr, item.check_global)
                .unwrap();
            assert_eq!(
                cpu.word_length().to_signed(got),
                item.expected,
                "static-model corpus `{}`",
                item.name
            );
        }
    }
}
