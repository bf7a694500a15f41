//! Quickstart — the paper's Figure 2/3 experience.
//!
//! Compile a function, call it, rewrite it with a parameter declared
//! `BREW_KNOWN`, and call the specialized drop-in replacement.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use brew_suite::prelude::*;

fn main() {
    // A process image stands in for the live process: code, data, heap,
    // stack, and a JIT region for rewritten functions.
    let img = Image::new();

    // `func` from Figure 2, compiled by the mini-C substrate the way a
    // static compiler would have produced it.
    let prog = compile_into(
        r#"
        int func(int a, int b) {
            int acc = 0;
            for (int i = 0; i < b; i++) acc += a * i;
            return acc;
        }
        "#,
        &img,
    )
    .expect("compiles");
    let func = prog.func("func").unwrap();

    // Call the original: int x = func(3, 10);
    let mut machine = Machine::new();
    let x = machine
        .call(&img, func, &CallArgs::new().int(3).int(10))
        .unwrap();
    println!(
        "func(3, 10)            = {:4}   [{} insts, {} cycles]",
        x.ret_int as i64, x.stats.insts, x.stats.cycles
    );

    // Figure 3: declare parameter 2 known and rewrite. In the paper's C
    // spelling this is
    //   brew_initConf(rConf);
    //   brew_setpar(rConf, 2, BREW_KNOWN);
    //   newfunc = (func_t) brew_rewrite(rConf, func, 42, 10);
    // The request builder binds each parameter's treatment and trace value
    // in one step. The rest of Figure 2 maps the same way — parameters are
    // bound in order (the paper numbers them from 1), and the trace values
    // `brew_rewrite` takes positionally ride on the same calls:
    //   brew_initConf(rConf)                       SpecRequest::new()
    //   brew_setpar(rConf, i, BREW_UNKNOWN)        .unknown_int() | .unknown_f64()
    //   brew_setpar(rConf, i, BREW_KNOWN)          .known_int(v) | .known_f64(v)
    //   brew_setpar(rConf, i, BREW_PTR_TO_KNOWN)   .ptr_to_known(addr, len)
    //   brew_setmem(rConf, start, end, BREW_KNOWN) .known_mem(start..end)
    //   brew_rewrite(rConf, func, args...)         Rewriter::new(&img).rewrite(func, &req)
    let req = SpecRequest::new()
        .unknown_int() // a: varies at runtime
        .known_int(10) // b: baked in
        .ret(RetKind::Int);
    let newfunc = Rewriter::new(&img)
        .rewrite(func, &req)
        .expect("rewrite succeeds");

    // The new function is a drop-in replacement: same signature. The loop
    // bound 10 is baked in — the loop is fully unrolled and folded.
    let x2 = machine
        .call(&img, newfunc.entry, &CallArgs::new().int(3).int(10))
        .unwrap();
    println!(
        "newfunc(3, 10)         = {:4}   [{} insts, {} cycles]",
        x2.ret_int as i64, x2.stats.insts, x2.stats.cycles
    );
    assert_eq!(x.ret_int, x2.ret_int);

    println!(
        "\nrewrite: {} guest insts traced, {} emitted, {} evaluated away, {} bytes generated",
        newfunc.stats.traced, newfunc.stats.emitted, newfunc.stats.elided, newfunc.code_len
    );
    println!("\nspecialized code:");
    for line in disasm_result(&img, &newfunc) {
        println!("  {line}");
    }
}
