//! Paper-spelling compatibility layer (Fig. 2/3 of the paper).
//!
//! The C prototype's API reads:
//!
//! ```c
//! Rewriter* r = brew_initConf();
//! brew_setpar(rConf, 2, BREW_KNOWN);
//! brew_setpar(rConf, 3, BREW_PTR_TO_KNOWN);
//! brew_setmem(rConf, s5, s5 + sizeof(*s5), BREW_KNOWN);
//! apply_s5 = brew_rewrite(rConf, apply, 0, xs, &s5);
//! ```
//!
//! This module keeps that spelling working verbatim against the
//! [`crate::SpecRequest`]-based core, for readers following the paper
//! side-by-side. Parameter indices are **1-based** as in the paper.
//! New code should use [`crate::SpecRequest`] directly.

#![allow(non_snake_case)]

use crate::config::{ArgValue, ParamSpec, RewriteConfig};
use crate::error::RewriteError;
use crate::passes::PassConfig;
use crate::request::SpecRequest;
use crate::{RewriteResult, Rewriter};
use brew_image::Image;

/// `BREW_UNKNOWN`: the parameter varies at runtime.
pub const BREW_UNKNOWN: ParamSpec = ParamSpec::Unknown;

/// `BREW_KNOWN`: the traced value is fixed for all future calls.
pub const BREW_KNOWN: ParamSpec = ParamSpec::Known;

/// `BREW_PTR_TO_KNOWN`: known pointer to `len` bytes of immutable known
/// data. The paper infers the extent from types; we take it explicitly.
pub fn BREW_PTR_TO_KNOWN(len: u64) -> ParamSpec {
    ParamSpec::PtrToKnown { len }
}

/// `brew_initConf`: a fresh rewriter configuration.
pub fn brew_initConf() -> RewriteConfig {
    RewriteConfig::new()
}

/// `brew_setpar`: mark parameter `par` (**1-based**, as in the paper's
/// `brew_setpar(rConf, 2, BREW_KNOWN)` for the second parameter) with a
/// treatment.
pub fn brew_setpar(conf: &mut RewriteConfig, par: usize, spec: ParamSpec) {
    assert!(par >= 1, "brew_setpar parameter indices are 1-based");
    conf.set_param(par - 1, spec);
}

/// `brew_setmem`: declare `[start, end)` known immutable memory.
pub fn brew_setmem(conf: &mut RewriteConfig, start: u64, end: u64) {
    conf.set_mem_known(start..end);
}

/// `brew_rewrite`: specialize `func` given the emulated-call arguments.
/// As in the paper, arguments beyond the configured specs are treated as
/// `BREW_UNKNOWN`.
pub fn brew_rewrite(
    img: &Image,
    conf: &RewriteConfig,
    func: u64,
    args: &[ArgValue],
) -> Result<RewriteResult, RewriteError> {
    let mut conf = conf.clone();
    if conf.params.len() < args.len() {
        conf.params.resize(args.len(), ParamSpec::Unknown);
    }
    let req = SpecRequest::from_config(&conf, args, &PassConfig::default())?;
    Rewriter::new(img).rewrite(func, &req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetKind;

    #[test]
    fn figure_2_spelling_works() {
        let img = Image::new();
        let prog =
            brew_minic::compile_into("int madd(int a, int b, int c) { return a * b + c; }", &img)
                .unwrap();
        let f = prog.func("madd").unwrap();

        let mut rConf = brew_initConf();
        brew_setpar(&mut rConf, 2, BREW_KNOWN);
        rConf.set_ret(RetKind::Int);
        let spec = brew_rewrite(
            &img,
            &rConf,
            f,
            &[ArgValue::Int(0), ArgValue::Int(7), ArgValue::Int(0)],
        )
        .unwrap();
        assert!(spec.code_len > 0);

        let mut m = brew_emu::Machine::new();
        let out = m
            .call(
                &img,
                spec.entry,
                &brew_emu::CallArgs::new().int(6).int(7).int(-2),
            )
            .unwrap();
        assert_eq!(out.ret_int as i64, 40);
    }

    #[test]
    fn one_based_indexing_matches_paper() {
        let mut conf = brew_initConf();
        brew_setpar(&mut conf, 2, BREW_KNOWN);
        assert_eq!(conf.params, vec![ParamSpec::Unknown, ParamSpec::Known]);
        brew_setpar(&mut conf, 3, BREW_PTR_TO_KNOWN(40));
        assert_eq!(conf.params[2], ParamSpec::PtrToKnown { len: 40 });
    }

    #[test]
    fn setmem_declares_range() {
        let mut conf = brew_initConf();
        brew_setmem(&mut conf, 0x1000, 0x1100);
        assert!(conf.addr_known(0x1000, 8));
    }
}
