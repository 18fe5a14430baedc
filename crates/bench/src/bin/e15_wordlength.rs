//! E15 — §3.3: word-length independence. "A program which manipulates
//! bytes, words and truth values can be translated into an instruction
//! sequence which behaves identically whatever the wordlength of the
//! processor executing it."
//!
//! The whole occam corpus is compiled once (word-independent code
//! generation) and the same binary is executed on the 32-bit T424 model
//! and the 16-bit T222 model; results must be identical.

use transputer::CpuConfig;
use transputer_bench::{cells, corpus, run_program, table};

fn main() {
    table::heading("E15", "word-length independence", "§3.3");

    table::header(&[
        "program",
        "result on T424 (32-bit)",
        "result on T222 (16-bit)",
        "identical",
    ]);
    let mut all_ok = true;
    for item in corpus::CORPUS {
        // One compilation, two executions: "a program can be executed
        // using processors of different word lengths without
        // recompilation" (§3.1).
        let program = occam::compile(item.source).expect("compiles");
        let results: Vec<i64> = [CpuConfig::t424(), CpuConfig::t222()]
            .into_iter()
            .map(|config| {
                let (mut cpu, wptr) = run_program(&program, config);
                let raw = program
                    .read_global(&mut cpu, wptr, item.check_global)
                    .expect("global");
                cpu.word_length().to_signed(raw)
            })
            .collect();
        // Programs whose intermediates overflow 16 bits legitimately
        // differ: the paper claims identical behaviour "apart from
        // overflow conditions resulting from word length dependencies"
        // (§3.3).
        let same = results[0] == results[1];
        let verdict = if item.word16_safe {
            if same {
                "yes"
            } else {
                "NO"
            }
        } else {
            "n/a — overflow-dependent (§3.3's stated exception)"
        };
        table::row(cells![item.name, results[0], results[1], verdict]);
        if item.word16_safe {
            all_ok &= same;
        }
    }
    println!();
    println!(
        "the identical binary ran on both parts: single-byte instructions, \
         prefix-encoded operands and `ldc 1; bcnt` word-size computation make \
         the code word-length independent (§3.2.5, §3.2.7, §3.3)."
    );
    table::verdict(
        all_ok,
        "the same binaries behave identically on 16- and 32-bit parts",
    );
}
