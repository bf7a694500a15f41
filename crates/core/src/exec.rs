//! Abstract execution of one traced instruction (§III.B):
//!
//! *"We do partial evaluation by tracing the execution of the original
//! function instruction by instruction. In each step, either the original
//! instruction, a modified version, or nothing may be passed on as the next
//! instruction to be appended to the newly generated variant."*
//!
//! Fully-known operations are evaluated at rewrite time and emit nothing;
//! everything else is re-emitted with known operands substituted by
//! immediates, absolute addresses, folded displacements or literal-pool
//! references. Instructions that write RSP are always emitted (in a
//! flag-neutral form where the original was flag-neutral), which keeps the
//! runtime stack pointer equal to the tracked `StackRel` value.

use crate::capture::{CapturedInst, Terminator};
use crate::error::RewriteError;
use crate::tracer::{materialize_gpr_inst, Step, TraceCtx, Tracer};
use crate::value::{alu_value, imul_value, shift_value, test_value, unop_value, FlagsVal, Value};
use crate::world::{InlineFrame, RegState, World, XmmState};
use brew_x86::alu;
use brew_x86::prelude::*;

const HOOK_SAVE_BYTES: i64 = 9 * 8 + 128; // 9 GPR pushes + 16 xmm slots

/// Argument delivered to an injected handler in RDI.
pub(crate) enum HookArg {
    /// Effective address of a memory operand (rsp-relative operands are
    /// pre-adjusted by the save-area size by the caller).
    Ea(MemRef),
    /// A constant (e.g. the original function's address).
    Const(u64),
}

/// The register-preserving call sequence around an injected handler:
/// save all caller-visible registers, load RDI, call, restore.
pub(crate) fn build_hook_sequence(hook: u64, arg: HookArg) -> Vec<Inst> {
    const SAVED: [Gpr; 9] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
    ];
    let mut out = Vec::with_capacity(9 * 2 + 16 * 2 + 5);
    for r in SAVED {
        out.push(Inst::Push {
            src: Operand::Reg(r),
        });
    }
    out.push(Inst::Alu {
        op: AluOp::Sub,
        w: Width::W64,
        dst: Operand::Reg(Gpr::Rsp),
        src: Operand::Imm(128),
    });
    for i in 0..16u8 {
        out.push(Inst::MovSd {
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rsp, i as i32 * 8)),
            src: Operand::Xmm(Xmm::from_number(i)),
        });
    }
    match arg {
        HookArg::Ea(m) => out.push(Inst::Lea {
            dst: Gpr::Rdi,
            src: m,
        }),
        HookArg::Const(c) => {
            if (c as i64) == (c as i64 as i32) as i64 {
                out.push(Inst::Mov {
                    w: Width::W64,
                    dst: Operand::Reg(Gpr::Rdi),
                    src: Operand::Imm(c as i64),
                });
            } else {
                out.push(Inst::MovAbs {
                    dst: Gpr::Rdi,
                    imm: c,
                });
            }
        }
    }
    out.push(Inst::CallRel { target: hook });
    for i in 0..16u8 {
        out.push(Inst::MovSd {
            dst: Operand::Xmm(Xmm::from_number(i)),
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, i as i32 * 8)),
        });
    }
    out.push(Inst::Alu {
        op: AluOp::Add,
        w: Width::W64,
        dst: Operand::Reg(Gpr::Rsp),
        src: Operand::Imm(128),
    });
    for r in SAVED.iter().rev() {
        out.push(Inst::Pop {
            dst: Operand::Reg(*r),
        });
    }
    out
}

impl Tracer<'_> {
    // ---- world reads -----------------------------------------------------

    /// Abstract effective address of a memory reference.
    fn addr_value(&self, w: &World, m: &MemRef) -> Value {
        let mut acc = Value::Const(m.disp as i64 as u64);
        if let Some(b) = m.base {
            let (v, _) = alu_value(AluOp::Add, Width::W64, w.reg(b).val, acc);
            acc = v;
        }
        if let Some((i, s)) = m.index {
            let idx = w.reg(i).val;
            let scaled = match idx {
                Value::Const(c) => Value::Const(c.wrapping_mul(s as u64)),
                Value::StackRel(o) if s == 1 => Value::StackRel(o),
                _ => Value::Unknown,
            };
            let (v, _) = alu_value(AluOp::Add, Width::W64, acc, scaled);
            acc = v;
        }
        acc
    }

    /// Value behind `addr` if it is known at rewrite time.
    fn load_known(&self, w: &World, addr: Value, size: u64) -> Value {
        match addr {
            Value::Const(a) => {
                if size == 8 && a % 8 == 0 {
                    if let Some(v) = w.gshadow.get(a) {
                        return v;
                    }
                    if self.addr_known(a, 8) {
                        return self
                            .img
                            .read_u64(a)
                            .map(|v| {
                                // The fold bakes these bytes into the code:
                                // record them for the staleness snapshot.
                                self.read_set.borrow_mut().record(a, 8);
                                Value::Const(v)
                            })
                            .unwrap_or(Value::Unknown);
                    }
                    Value::Unknown
                } else {
                    let lo = a & !7;
                    let hi = (a + size - 1) & !7;
                    if w.gshadow.contains_key(lo) || w.gshadow.contains_key(hi) {
                        return Value::Unknown;
                    }
                    if self.addr_known(a, size) {
                        return self
                            .img
                            .read_uint(a, size)
                            .map(|v| {
                                self.read_set.borrow_mut().record(a, size);
                                Value::Const(v)
                            })
                            .unwrap_or(Value::Unknown);
                    }
                    Value::Unknown
                }
            }
            Value::StackRel(o) => {
                if size == 8 && o % 8 == 0 {
                    w.frame_slot(o)
                } else {
                    Value::Unknown
                }
            }
            Value::Unknown => Value::Unknown,
        }
    }

    /// Record the shadow effect of an (always-emitted) store.
    fn store_shadow(&mut self, w: &mut World, addr: Value, size: u64, val: Value) {
        // A frame pointer stored anywhere but the tracked frame itself
        // becomes reachable from untracked memory.
        if matches!(val, Value::StackRel(_)) && !matches!(addr, Value::StackRel(_)) {
            w.frame_escaped = true;
            self.frame_escaped_any();
        }
        match addr {
            Value::Const(a) => {
                if size == 8 && a % 8 == 0 {
                    w.gshadow.insert(a, val);
                } else {
                    w.gshadow.insert(a & !7, Value::Unknown);
                    w.gshadow.insert((a + size - 1) & !7, Value::Unknown);
                }
            }
            Value::StackRel(o) => {
                if size == 8 && o % 8 == 0 {
                    w.set_frame_slot(o, val);
                } else {
                    w.set_frame_slot(o & !7, Value::Unknown);
                    w.set_frame_slot((o + size as i64 - 1) & !7, Value::Unknown);
                }
            }
            Value::Unknown => w.clobber_for_unknown_store(),
        }
    }

    // ---- emission helpers --------------------------------------------------

    fn emit(&mut self, cx: &mut TraceCtx, inst: Inst) {
        self.emit_mem(cx, inst, None, None)
    }

    fn emit_mem(&mut self, cx: &mut TraceCtx, inst: Inst, fs: Option<i64>, fl: Option<i64>) {
        if inst.writes_flags() {
            cx.wrote_flags = true;
        }
        if inst.reads_flags() && !cx.wrote_flags {
            cx.reads_flags_on_entry = true;
        }
        self.stats_emitted();
        cx.out.push(CapturedInst {
            inst,
            frame_store: fs,
            frame_load: fl,
        });
    }

    fn stats_emitted(&mut self) {
        self.stats.emitted += 1;
    }

    fn elided(&mut self) {
        self.stats.elided += 1;
    }

    /// Make the architectural GPR hold its tracked value.
    ///
    /// `data_use` records *why*: when a stack-relative value is needed as
    /// ordinary data in an emitted instruction (its result becomes an
    /// untracked runtime value), a frame pointer escapes into the unknown
    /// world and the frame-aliasing assumption must be dropped. Pure
    /// address formation (an index register of a memory operand), saves to
    /// the tracked frame (push) and ABI-restores at return do not leak.
    fn ensure_arch_gpr_for(
        &mut self,
        cx: &mut TraceCtx,
        r: Gpr,
        data_use: bool,
    ) -> Result<(), RewriteError> {
        let st = cx.w.reg(r);
        if data_use && matches!(st.val, Value::StackRel(_)) {
            cx.w.frame_escaped = true;
            self.frame_escaped_any();
        }
        if st.synced || !st.val.is_known() {
            return Ok(());
        }
        let inst = materialize_gpr_inst(r, st.val, cx.w.rsp_off())?;
        self.emit(cx, inst);
        cx.w.set_reg(
            r,
            RegState {
                val: st.val,
                synced: true,
            },
        );
        Ok(())
    }

    /// [`Self::ensure_arch_gpr_for`] with `data_use = true` (the common,
    /// conservative case).
    fn ensure_arch_gpr(&mut self, cx: &mut TraceCtx, r: Gpr) -> Result<(), RewriteError> {
        self.ensure_arch_gpr_for(cx, r, true)
    }

    /// Make the architectural XMM register hold its tracked lanes.
    fn ensure_arch_xmm(&mut self, cx: &mut TraceCtx, x: Xmm) -> Result<(), RewriteError> {
        let st = cx.w.xmm(x);
        if st.synced || st.lanes.iter().all(|l| !l.is_known()) {
            return Ok(());
        }
        let lane0 = match st.lanes[0] {
            Value::Const(b) => b,
            _ => {
                return Err(RewriteError::TraceFault {
                    addr: 0,
                    what: "cannot materialize xmm with unknown low lane",
                })
            }
        };
        let (inst, lanes) = match st.lanes[1] {
            Value::Const(hi) if hi != 0 => {
                let pool = self.pool_const16(lane0, hi);
                (
                    Inst::MovUpd {
                        dst: Operand::Xmm(x),
                        src: Operand::Mem(MemRef::abs(pool as i32)),
                    },
                    [Value::Const(lane0), Value::Const(hi)],
                )
            }
            _ => {
                let pool = self.pool_const8(lane0);
                (
                    Inst::MovSd {
                        dst: Operand::Xmm(x),
                        src: Operand::Mem(MemRef::abs(pool as i32)),
                    },
                    [Value::Const(lane0), Value::Const(0)],
                )
            }
        };
        self.emit(cx, inst);
        cx.w.set_xmm(
            x,
            XmmState {
                lanes,
                synced: true,
            },
        );
        Ok(())
    }

    fn frame_escaped_any(&mut self) {
        self.escaped = true;
    }

    // ---- operand substitution ----------------------------------------------

    /// Rewrite a memory operand so the emitted instruction addresses the
    /// same location: fold constants into displacements, rebase
    /// stack-relative addresses onto RSP, use absolute addressing for fully
    /// known addresses (the Figure-6 form). Returns the rewritten operand
    /// and, when the address is a tracked frame slot, its entry-relative
    /// offset for the dead-store pass.
    fn subst_mem(
        &mut self,
        cx: &mut TraceCtx,
        m: &MemRef,
    ) -> Result<(MemRef, Option<i64>), RewriteError> {
        let total = self.addr_value(&cx.w, m);
        match total {
            Value::Const(a) => {
                if let Some(abs) = MemRef::abs_u64(a) {
                    return Ok((abs, None));
                }
            }
            Value::StackRel(o) => {
                let disp = i32::try_from(o - cx.w.rsp_off()).map_err(|_| {
                    RewriteError::Unencodable(brew_x86::encode::EncodeError::ImmTooLarge(o))
                })?;
                return Ok((MemRef::base_disp(Gpr::Rsp, disp), Some(o)));
            }
            Value::Unknown => {}
        }
        // Partially known: rebuild component-wise.
        let mut disp = m.disp as i64;
        let mut base: Option<Gpr> = None;
        if let Some(b) = m.base {
            match cx.w.reg(b).val {
                Value::Unknown => base = Some(b),
                Value::Const(c) => disp += c as i64,
                Value::StackRel(o) => {
                    disp += o - cx.w.rsp_off();
                    base = Some(Gpr::Rsp);
                }
            }
        }
        let mut index: Option<(Gpr, u8)> = None;
        if let Some((i, s)) = m.index {
            match cx.w.reg(i).val {
                Value::Unknown => index = Some((i, s)),
                Value::Const(c) => disp += (c as i64).wrapping_mul(s as i64),
                Value::StackRel(_) => {
                    // Architectural index needed: materialize it (pure
                    // address use, not an escape).
                    self.ensure_arch_gpr_for(cx, i, false)?;
                    index = Some((i, s));
                }
            }
        }
        let disp = i32::try_from(disp).map_err(|_| {
            RewriteError::Unencodable(brew_x86::encode::EncodeError::ImmTooLarge(disp))
        })?;
        Ok((MemRef { base, index, disp }, None))
    }

    /// Substitute an integer source operand for emission. Known register
    /// values become immediates when the encoding allows, otherwise the
    /// register is materialized.
    fn subst_int_src(
        &mut self,
        cx: &mut TraceCtx,
        op: &Operand,
        w: Width,
    ) -> Result<(Operand, Option<i64>), RewriteError> {
        match op {
            Operand::Imm(_) => Ok((*op, None)),
            Operand::Reg(r) => match cx.w.reg(*r).val {
                Value::Unknown => Ok((*op, None)),
                Value::Const(c) => {
                    if let Some(imm) = imm_for(w, c) {
                        Ok((Operand::Imm(imm), None))
                    } else {
                        self.ensure_arch_gpr(cx, *r)?;
                        Ok((*op, None))
                    }
                }
                Value::StackRel(_) => {
                    self.ensure_arch_gpr(cx, *r)?;
                    Ok((*op, None))
                }
            },
            Operand::Mem(m) => {
                let (mm, off) = self.subst_mem(cx, m)?;
                Ok((Operand::Mem(mm), off))
            }
            // Decode never pairs an xmm operand with an integer opcode,
            // but guest bytes are untrusted: fail the rewrite, not the
            // process (§III.G).
            Operand::Xmm(_) => Err(RewriteError::TraceFault {
                addr: 0,
                what: "xmm operand in integer substitution",
            }),
        }
    }

    /// Substitute an SSE source operand: known scalar constants come from
    /// the literal pool as absolute memory operands.
    fn subst_sse_src(
        &mut self,
        cx: &mut TraceCtx,
        op: &Operand,
        packed: bool,
    ) -> Result<(Operand, Option<i64>), RewriteError> {
        match op {
            Operand::Xmm(x) => {
                let st = cx.w.xmm(*x);
                if st.synced {
                    return Ok((*op, None));
                }
                match (st.lanes[0], packed) {
                    (Value::Const(bits), false) => {
                        let pool = self.pool_const8(bits);
                        Ok((Operand::Mem(MemRef::abs(pool as i32)), None))
                    }
                    (Value::Const(lo), true) => {
                        let hi = match st.lanes[1] {
                            Value::Const(h) => h,
                            _ => {
                                self.ensure_arch_xmm(cx, *x)?;
                                return Ok((*op, None));
                            }
                        };
                        let pool = self.pool_const16(lo, hi);
                        Ok((Operand::Mem(MemRef::abs(pool as i32)), None))
                    }
                    _ => {
                        self.ensure_arch_xmm(cx, *x)?;
                        Ok((*op, None))
                    }
                }
            }
            Operand::Mem(m) => {
                let (mm, off) = self.subst_mem(cx, m)?;
                Ok((Operand::Mem(mm), off))
            }
            _ => Err(RewriteError::TraceFault {
                addr: 0,
                what: "non-xmm, non-memory operand in sse substitution",
            }),
        }
    }

    /// Read an integer operand's abstract value (resolving known loads).
    fn int_value(&self, w: &World, op: &Operand, width: Width) -> Value {
        match op {
            Operand::Reg(r) => w.reg(*r).val,
            Operand::Imm(i) => Value::Const(*i as u64),
            Operand::Mem(m) => {
                let addr = self.addr_value(w, m);
                self.load_known(w, addr, width.bytes())
            }
            // Malformed operand class: unknown is always sound — the
            // instruction is emitted unmodified instead of folded.
            Operand::Xmm(_) => Value::Unknown,
        }
    }

    /// Read the 64-bit lane behind an SSE source (xmm low lane or m64).
    fn sse64_value(&self, w: &World, op: &Operand) -> Value {
        match op {
            Operand::Xmm(x) => w.xmm(*x).lanes[0],
            Operand::Mem(m) => {
                let addr = self.addr_value(w, m);
                self.load_known(w, addr, 8)
            }
            _ => Value::Unknown,
        }
    }

    fn sse128_value(&self, w: &World, op: &Operand) -> [Value; 2] {
        match op {
            Operand::Xmm(x) => w.xmm(*x).lanes,
            Operand::Mem(m) => {
                let addr = self.addr_value(w, m);
                let lo = self.load_known(w, addr, 8);
                let hi = match addr {
                    Value::Const(a) => self.load_known(w, Value::Const(a + 8), 8),
                    Value::StackRel(o) => self.load_known(w, Value::StackRel(o + 8), 8),
                    Value::Unknown => Value::Unknown,
                };
                [lo, hi]
            }
            _ => [Value::Unknown, Value::Unknown],
        }
    }

    /// Write an abstract result to a GPR with x86 width semantics,
    /// unsynced (the instruction that produced it was elided).
    fn set_reg_value(&self, w: &mut World, r: Gpr, width: Width, v: Value, synced: bool) {
        let v = match width {
            Width::W64 => v,
            Width::W32 => v.as_w32_result(),
            Width::W8 => match (w.reg(r).val, v) {
                (Value::Const(old), Value::Const(b)) => Value::Const((old & !0xFF) | (b & 0xFF)),
                _ => Value::Unknown,
            },
        };
        let synced = synced || matches!(v, Value::Unknown);
        w.set_reg(r, RegState { val: v, synced });
    }

    /// Inject a memory-access hook call (§III.D): saves all caller-visible
    /// registers, passes the effective address in RDI, calls the handler
    /// and restores. The handler may clobber flags; corruption is tracked.
    pub(crate) fn inject_hook(
        &mut self,
        cx: &mut TraceCtx,
        hook: u64,
        arg: HookArg,
    ) -> Result<(), RewriteError> {
        // Adjust rsp-relative effective addresses by the save-area size.
        let arg = match arg {
            HookArg::Ea(m) if m.base == Some(Gpr::Rsp) => HookArg::Ea(
                m.with_disp_added(HOOK_SAVE_BYTES)
                    .ok_or(RewriteError::Unencodable(
                        brew_x86::encode::EncodeError::ImmTooLarge(m.disp as i64),
                    ))?,
            ),
            a => a,
        };
        for inst in build_hook_sequence(hook, arg) {
            self.emit(cx, inst);
        }
        // Shadow slots under the save area are clobbered.
        let rsp_off = cx.w.rsp_off();
        let mut off = rsp_off - HOOK_SAVE_BYTES;
        while off < rsp_off {
            if cx.w.frame.contains_key(off) {
                cx.w.frame.insert(off, Value::Unknown);
            }
            off += 8;
        }
        // The handler clobbers flags: genuinely-runtime flags become stale.
        if matches!(cx.w.flags, FlagsVal::Unknown) {
            cx.w.flags = FlagsVal::Stale;
        }
        self.stats.hooks_injected += 1;
        Ok(())
    }

    /// If hooks are enabled and the (already substituted) operand has an
    /// unknown address, inject the handler call before the access.
    fn maybe_hook(&mut self, cx: &mut TraceCtx, m: &MemRef) -> Result<(), RewriteError> {
        if let Some(h) = self.cfg.mem_access_hook {
            // Fully folded absolute/rsp addresses are "known" accesses; the
            // PGAS use case wants the unknown (potentially remote) ones.
            let is_known = m.base.is_none() && m.index.is_none()
                || (m.base == Some(Gpr::Rsp) && m.index.is_none());
            if !is_known {
                self.inject_hook(cx, h, HookArg::Ea(*m))?;
            }
        }
        Ok(())
    }

    // =====================================================================
    // The instruction dispatcher.
    // =====================================================================

    pub(crate) fn exec_inst(
        &mut self,
        cx: &mut TraceCtx,
        inst: &Inst,
        addr: u64,
        next: u64,
    ) -> Result<Step, RewriteError> {
        let fresh = cx.opts.fresh_unknown;
        let force_flags = cx.opts.branch_unknown;

        match inst {
            Inst::Nop => Ok(Step::Continue(next)),
            Inst::Ud2 => Err(RewriteError::TraceFault { addr, what: "ud2" }),

            // ---- data movement ------------------------------------------
            Inst::Mov { w, dst, src } => {
                match dst {
                    Operand::Reg(d) => {
                        let v = self.int_value(&cx.w, src, *w);
                        if v.is_known() && *d != Gpr::Rsp {
                            self.set_reg_value(&mut cx.w, *d, *w, v, false);
                            self.elided();
                        } else if *d == Gpr::Rsp {
                            // mov rsp, X: emit a flag-neutral RSP adjustment.
                            let Value::StackRel(o) = (match src {
                                Operand::Reg(s) => cx.w.reg(*s).val,
                                Operand::Imm(_) | Operand::Mem(_) | Operand::Xmm(_) => {
                                    self.int_value(&cx.w, src, *w)
                                }
                            }) else {
                                return Err(RewriteError::TraceFault {
                                    addr,
                                    what: "rsp assigned a non-stack value",
                                });
                            };
                            let delta = o - cx.w.rsp_off();
                            if delta != 0 {
                                let disp = i32::try_from(delta).map_err(|_| {
                                    RewriteError::Unencodable(
                                        brew_x86::encode::EncodeError::ImmTooLarge(delta),
                                    )
                                })?;
                                self.emit(
                                    cx,
                                    Inst::Lea {
                                        dst: Gpr::Rsp,
                                        src: MemRef::base_disp(Gpr::Rsp, disp),
                                    },
                                );
                            } else {
                                self.elided();
                            }
                            cx.w.set_reg(
                                Gpr::Rsp,
                                RegState {
                                    val: Value::StackRel(o),
                                    synced: true,
                                },
                            );
                        } else {
                            let (s, fl) = self.subst_int_src(cx, src, *w)?;
                            if let Operand::Mem(m) = &s {
                                self.maybe_hook(cx, m)?;
                            }
                            self.emit_mem(
                                cx,
                                Inst::Mov {
                                    w: *w,
                                    dst: *dst,
                                    src: s,
                                },
                                None,
                                fl,
                            );
                            self.set_reg_value(&mut cx.w, *d, *w, Value::Unknown, true);
                        }
                    }
                    Operand::Mem(m) => {
                        // Stores are always emitted.
                        let val = self.int_value(&cx.w, src, *w);
                        let a = self.addr_value(&cx.w, m);
                        let (mm, fs) = self.subst_mem(cx, m)?;
                        let (s, _) = self.subst_int_src(cx, src, *w)?;
                        let s = match s {
                            Operand::Imm(i) if imm_for(*w, i as u64).is_none() => {
                                // Shouldn't happen (imm_for produced it).
                                return Err(RewriteError::Unencodable(
                                    brew_x86::encode::EncodeError::ImmTooLarge(i),
                                ));
                            }
                            s => s,
                        };
                        self.maybe_hook(cx, &mm)?;
                        self.emit_mem(
                            cx,
                            Inst::Mov {
                                w: *w,
                                dst: Operand::Mem(mm),
                                src: s,
                            },
                            fs,
                            None,
                        );
                        let stored = match *w {
                            Width::W64 => val,
                            _ => val.as_w32_result(),
                        };
                        self.store_shadow(&mut cx.w, a, w.bytes(), stored);
                    }
                    _ => {
                        return Err(RewriteError::TraceFault {
                            addr,
                            what: "bad mov dst",
                        })
                    }
                }
                Ok(Step::Continue(next))
            }

            Inst::MovAbs { dst, imm } => {
                self.set_reg_value(&mut cx.w, *dst, Width::W64, Value::Const(*imm), false);
                self.elided();
                Ok(Step::Continue(next))
            }

            Inst::Movsxd { dst, src } => {
                let v = self.int_value(&cx.w, src, Width::W32);
                match v {
                    Value::Const(c) => {
                        self.set_reg_value(
                            &mut cx.w,
                            *dst,
                            Width::W64,
                            Value::Const(Width::W32.sext(c)),
                            false,
                        );
                        self.elided();
                    }
                    _ => {
                        let (s, fl) = self.subst_int_src(cx, src, Width::W32)?;
                        let s = no_imm(self, cx, s, src)?;
                        self.emit_mem(cx, Inst::Movsxd { dst: *dst, src: s }, None, fl);
                        self.set_reg_value(&mut cx.w, *dst, Width::W64, Value::Unknown, true);
                    }
                }
                Ok(Step::Continue(next))
            }

            Inst::Movzx8 { w, dst, src } => {
                let v = self.int_value(&cx.w, src, Width::W8);
                match v {
                    Value::Const(c) => {
                        self.set_reg_value(&mut cx.w, *dst, *w, Value::Const(c & 0xFF), false);
                        self.elided();
                    }
                    _ => {
                        let (s, fl) = self.subst_int_src(cx, src, Width::W8)?;
                        let s = no_imm(self, cx, s, src)?;
                        self.emit_mem(
                            cx,
                            Inst::Movzx8 {
                                w: *w,
                                dst: *dst,
                                src: s,
                            },
                            None,
                            fl,
                        );
                        self.set_reg_value(&mut cx.w, *dst, *w, Value::Unknown, true);
                    }
                }
                Ok(Step::Continue(next))
            }

            Inst::Lea { dst, src } => {
                let v = self.addr_value(&cx.w, src);
                let keep = match v {
                    Value::StackRel(_) => true, // stack addresses stay tracked
                    Value::Const(_) => !fresh,
                    Value::Unknown => false,
                };
                if v.is_known() && keep && *dst != Gpr::Rsp {
                    self.set_reg_value(&mut cx.w, *dst, Width::W64, v, false);
                    self.elided();
                } else if *dst == Gpr::Rsp {
                    let Value::StackRel(o) = v else {
                        return Err(RewriteError::TraceFault {
                            addr,
                            what: "rsp assigned a non-stack value",
                        });
                    };
                    let delta = o - cx.w.rsp_off();
                    if delta != 0 {
                        self.emit(
                            cx,
                            Inst::Lea {
                                dst: Gpr::Rsp,
                                src: MemRef::base_disp(Gpr::Rsp, delta as i32),
                            },
                        );
                    }
                    cx.w.set_reg(
                        Gpr::Rsp,
                        RegState {
                            val: v,
                            synced: true,
                        },
                    );
                } else {
                    let (m, _) = self.subst_mem(cx, src)?;
                    self.emit(cx, Inst::Lea { dst: *dst, src: m });
                    let res = if v.is_known() { v } else { Value::Unknown };
                    // Emitted lea computes the true value from architectural
                    // inputs; if we also know it, it is synced.
                    let synced = true;
                    let res = if fresh && matches!(res, Value::Const(_)) {
                        Value::Unknown
                    } else {
                        res
                    };
                    cx.w.set_reg(*dst, RegState { val: res, synced });
                }
                Ok(Step::Continue(next))
            }

            // ---- ALU ------------------------------------------------------
            Inst::Alu { op, w, dst, src } => {
                self.exec_alu(cx, *op, *w, dst, src, addr, fresh, force_flags)?;
                Ok(Step::Continue(next))
            }

            Inst::Test { w, a, b } => {
                let va = self.int_value(&cx.w, a, *w);
                let vb = self.int_value(&cx.w, b, *w);
                let flags = test_value(*w, va, vb);
                let force = force_flags || fresh;
                if flags.known().is_some() && !force {
                    cx.w.flags = flags;
                    self.elided();
                } else {
                    let (aa, fl) = self.subst_int_src(cx, a, *w)?;
                    let aa = no_imm(self, cx, aa, a)?;
                    let (bb, _) = self.subst_int_src(cx, b, *w)?;
                    // test needs reg or imm on the b side.
                    let bb = match bb {
                        Operand::Mem(_) => {
                            let Operand::Reg(r) = b else {
                                return Err(RewriteError::TraceFault {
                                    addr,
                                    what: "test with two memory operands",
                                });
                            };
                            self.ensure_arch_gpr(cx, *r)?;
                            Operand::Reg(*r)
                        }
                        other => other,
                    };
                    self.emit_mem(
                        cx,
                        Inst::Test {
                            w: *w,
                            a: aa,
                            b: bb,
                        },
                        None,
                        fl,
                    );
                    cx.w.flags = if force { FlagsVal::Unknown } else { flags };
                }
                Ok(Step::Continue(next))
            }

            Inst::Imul { w, dst, src } => {
                let va = cx.w.reg(*dst).val;
                let vb = self.int_value(&cx.w, src, *w);
                let (res, flags) = imul_value(*w, va, vb);
                let force = fresh || force_flags;
                if res.is_known() && !force {
                    self.set_reg_value(&mut cx.w, *dst, *w, res, false);
                    cx.w.flags = flags;
                    self.elided();
                } else {
                    self.ensure_arch_gpr(cx, *dst)?;
                    let (s, fl) = self.subst_int_src(cx, src, *w)?;
                    // imul r, r/m or imul r, r/m, imm.
                    let out_inst = match s {
                        Operand::Imm(i) => Inst::ImulImm {
                            w: *w,
                            dst: *dst,
                            src: Operand::Reg(*dst),
                            imm: i as i32,
                        },
                        s => Inst::Imul {
                            w: *w,
                            dst: *dst,
                            src: s,
                        },
                    };
                    self.emit_mem(cx, out_inst, None, fl);
                    let val = if fresh { Value::Unknown } else { res };
                    self.set_reg_value(&mut cx.w, *dst, *w, val, true);
                    cx.w.flags = FlagsVal::Unknown;
                }
                Ok(Step::Continue(next))
            }

            Inst::ImulImm { w, dst, src, imm } => {
                let vb = self.int_value(&cx.w, src, *w);
                let (res, flags) = imul_value(*w, vb, Value::Const(*imm as i64 as u64));
                let force = fresh || force_flags;
                if res.is_known() && !force {
                    self.set_reg_value(&mut cx.w, *dst, *w, res, false);
                    cx.w.flags = flags;
                    self.elided();
                } else {
                    let (s, fl) = self.subst_int_src(cx, src, *w)?;
                    let s = no_imm(self, cx, s, src)?;
                    self.emit_mem(
                        cx,
                        Inst::ImulImm {
                            w: *w,
                            dst: *dst,
                            src: s,
                            imm: *imm,
                        },
                        None,
                        fl,
                    );
                    let val = if fresh { Value::Unknown } else { res };
                    self.set_reg_value(&mut cx.w, *dst, *w, val, true);
                    cx.w.flags = FlagsVal::Unknown;
                }
                Ok(Step::Continue(next))
            }

            Inst::Unary { op, w, dst } => {
                self.exec_unary(cx, *op, *w, dst, addr, fresh, force_flags)?;
                Ok(Step::Continue(next))
            }

            Inst::Shift { op, w, dst, count } => {
                let cval = match count {
                    ShiftCount::Imm(i) => Value::Const(*i as u64),
                    ShiftCount::Cl => cx.w.reg(Gpr::Rcx).val,
                };
                let dval = self.int_value(&cx.w, dst, *w);
                let (res, flags) = shift_value(*op, *w, dval, cval, cx.w.flags);
                let force = fresh || force_flags;
                match dst {
                    Operand::Reg(d) if res.is_known() && !force => {
                        self.set_reg_value(&mut cx.w, *d, *w, res, false);
                        cx.w.flags = flags;
                        self.elided();
                    }
                    _ => {
                        if let Operand::Reg(d) = dst {
                            self.ensure_arch_gpr(cx, *d)?;
                        }
                        let count_out = match (count, cval) {
                            (ShiftCount::Imm(i), _) => ShiftCount::Imm(*i),
                            (ShiftCount::Cl, Value::Const(c)) => ShiftCount::Imm(c as u8),
                            (ShiftCount::Cl, _) => {
                                self.ensure_arch_gpr(cx, Gpr::Rcx)?;
                                ShiftCount::Cl
                            }
                        };
                        let (dd, fs) = match dst {
                            Operand::Mem(m) => {
                                let (mm, off) = self.subst_mem(cx, m)?;
                                (Operand::Mem(mm), off)
                            }
                            d => (*d, None),
                        };
                        self.emit_mem(
                            cx,
                            Inst::Shift {
                                op: *op,
                                w: *w,
                                dst: dd,
                                count: count_out,
                            },
                            fs,
                            fs,
                        );
                        let val = if fresh { Value::Unknown } else { res };
                        match dst {
                            Operand::Reg(d) => self.set_reg_value(&mut cx.w, *d, *w, val, true),
                            Operand::Mem(m) => {
                                let a = self.addr_value(&cx.w, m);
                                self.store_shadow(&mut cx.w, a, w.bytes(), val);
                            }
                            _ => {}
                        }
                        cx.w.flags = FlagsVal::Unknown;
                    }
                }
                Ok(Step::Continue(next))
            }

            Inst::Cqo { w } => {
                let rax = cx.w.reg(Gpr::Rax).val;
                match rax {
                    Value::Const(v) if !fresh => {
                        let sign = match w {
                            Width::W64 => ((v as i64) >> 63) as u64,
                            _ => (((v as u32 as i32) >> 31) as u32) as u64,
                        };
                        self.set_reg_value(&mut cx.w, Gpr::Rdx, *w, Value::Const(sign), false);
                        self.elided();
                    }
                    _ => {
                        self.ensure_arch_gpr(cx, Gpr::Rax)?;
                        self.emit(cx, Inst::Cqo { w: *w });
                        self.set_reg_value(&mut cx.w, Gpr::Rdx, *w, Value::Unknown, true);
                    }
                }
                Ok(Step::Continue(next))
            }

            Inst::Idiv { w, src } => {
                let hi = cx.w.reg(Gpr::Rdx).val;
                let lo = cx.w.reg(Gpr::Rax).val;
                let d = self.int_value(&cx.w, src, *w);
                match (hi, lo, d) {
                    (Value::Const(h), Value::Const(l), Value::Const(dv)) if !fresh => {
                        match alu::idiv(*w, h, l, dv) {
                            Some((q, r)) => {
                                self.set_reg_value(&mut cx.w, Gpr::Rax, *w, Value::Const(q), false);
                                self.set_reg_value(&mut cx.w, Gpr::Rdx, *w, Value::Const(r), false);
                                cx.w.flags = FlagsVal::Unknown; // idiv leaves flags undefined
                                self.elided();
                            }
                            None => {
                                return Err(RewriteError::TraceFault {
                                    addr,
                                    what: "division fault on known operands",
                                })
                            }
                        }
                    }
                    _ => {
                        self.ensure_arch_gpr(cx, Gpr::Rax)?;
                        self.ensure_arch_gpr(cx, Gpr::Rdx)?;
                        let (s, fl) = self.subst_int_src(cx, src, *w)?;
                        let s = no_imm(self, cx, s, src)?;
                        self.emit_mem(cx, Inst::Idiv { w: *w, src: s }, None, fl);
                        self.set_reg_value(&mut cx.w, Gpr::Rax, *w, Value::Unknown, true);
                        self.set_reg_value(&mut cx.w, Gpr::Rdx, *w, Value::Unknown, true);
                        cx.w.flags = FlagsVal::Unknown;
                    }
                }
                Ok(Step::Continue(next))
            }

            Inst::Setcc { cond, dst } => {
                let force = force_flags;
                match (cx.w.flags, force) {
                    (FlagsVal::Known(f), false) => {
                        let bit = f.cond(*cond) as u64;
                        match dst {
                            Operand::Reg(d) => {
                                if cx.w.reg(*d).val.is_known() {
                                    // Merge into the tracked constant.
                                    self.set_reg_value(
                                        &mut cx.w,
                                        *d,
                                        Width::W8,
                                        Value::Const(bit),
                                        false,
                                    );
                                    self.elided();
                                } else {
                                    // The register's other bytes are unknown
                                    // (architectural); write the known bit
                                    // with a byte move so the architectural
                                    // low byte matches — eliding would leave
                                    // stale flags-dependent garbage there.
                                    self.emit(
                                        cx,
                                        Inst::Mov {
                                            w: Width::W8,
                                            dst: *dst,
                                            src: Operand::Imm(bit as i64),
                                        },
                                    );
                                    self.set_reg_value(
                                        &mut cx.w,
                                        *d,
                                        Width::W8,
                                        Value::Const(bit),
                                        true,
                                    );
                                }
                            }
                            Operand::Mem(m) => {
                                let a = self.addr_value(&cx.w, m);
                                let (mm, fs) = self.subst_mem(cx, m)?;
                                // Emit as an explicit byte store of the result.
                                self.emit_mem(
                                    cx,
                                    Inst::Mov {
                                        w: Width::W8,
                                        dst: Operand::Mem(mm),
                                        src: Operand::Imm(bit as i64),
                                    },
                                    fs,
                                    None,
                                );
                                self.store_shadow(&mut cx.w, a, 1, Value::Const(bit));
                            }
                            _ => {
                                return Err(RewriteError::TraceFault {
                                    addr,
                                    what: "bad setcc",
                                })
                            }
                        }
                    }
                    _ => {
                        if matches!(cx.w.flags, FlagsVal::Stale) {
                            return Err(RewriteError::UntrustedFlags { addr });
                        }
                        match dst {
                            Operand::Reg(d) => {
                                self.ensure_arch_gpr(cx, *d)?;
                                self.emit(
                                    cx,
                                    Inst::Setcc {
                                        cond: *cond,
                                        dst: *dst,
                                    },
                                );
                                self.set_reg_value(&mut cx.w, *d, Width::W8, Value::Unknown, true);
                            }
                            Operand::Mem(m) => {
                                let a = self.addr_value(&cx.w, m);
                                let (mm, fs) = self.subst_mem(cx, m)?;
                                self.emit_mem(
                                    cx,
                                    Inst::Setcc {
                                        cond: *cond,
                                        dst: Operand::Mem(mm),
                                    },
                                    fs,
                                    None,
                                );
                                self.store_shadow(&mut cx.w, a, 1, Value::Unknown);
                            }
                            _ => {
                                return Err(RewriteError::TraceFault {
                                    addr,
                                    what: "bad setcc",
                                })
                            }
                        }
                    }
                }
                Ok(Step::Continue(next))
            }

            // ---- stack ----------------------------------------------------
            Inst::Push { src } => {
                let val = self.int_value(&cx.w, src, Width::W64);
                let new_off = cx.w.rsp_off() - 8;
                let out = match (src, val) {
                    (_, Value::Const(c)) if (c as i64) == (c as i64 as i32) as i64 => Inst::Push {
                        src: Operand::Imm(c as i64),
                    },
                    (Operand::Reg(r), _) => {
                        // The value lands in the tracked frame: a save,
                        // not an escape (store_shadow audits the target).
                        self.ensure_arch_gpr_for(cx, *r, false)?;
                        Inst::Push {
                            src: Operand::Reg(*r),
                        }
                    }
                    (Operand::Mem(m), _) => {
                        let (mm, fl) = self.subst_mem(cx, m)?;
                        let i = Inst::Push {
                            src: Operand::Mem(mm),
                        };
                        self.emit_mem(cx, i, Some(new_off), fl);
                        cx.w.set_reg(
                            Gpr::Rsp,
                            RegState {
                                val: Value::StackRel(new_off),
                                synced: true,
                            },
                        );
                        self.store_shadow(&mut cx.w, Value::StackRel(new_off), 8, val);
                        return Ok(Step::Continue(next));
                    }
                    (Operand::Imm(i), _) => Inst::Push {
                        src: Operand::Imm(*i),
                    },
                    (Operand::Xmm(_), _) => {
                        return Err(RewriteError::TraceFault {
                            addr,
                            what: "push xmm",
                        })
                    }
                };
                self.emit_mem(cx, out, Some(new_off), None);
                cx.w.set_reg(
                    Gpr::Rsp,
                    RegState {
                        val: Value::StackRel(new_off),
                        synced: true,
                    },
                );
                self.store_shadow(&mut cx.w, Value::StackRel(new_off), 8, val);
                Ok(Step::Continue(next))
            }

            Inst::Pop { dst } => {
                let off = cx.w.rsp_off();
                let slot = cx.w.frame_slot(off);
                let new_off = off + 8;
                match dst {
                    Operand::Reg(d) => {
                        if slot.is_known() {
                            // Elide the load: flag-neutral RSP adjustment.
                            self.emit(
                                cx,
                                Inst::Lea {
                                    dst: Gpr::Rsp,
                                    src: MemRef::base_disp(Gpr::Rsp, 8),
                                },
                            );
                            cx.w.set_reg(
                                Gpr::Rsp,
                                RegState {
                                    val: Value::StackRel(new_off),
                                    synced: true,
                                },
                            );
                            self.set_reg_value(&mut cx.w, *d, Width::W64, slot, false);
                        } else {
                            self.emit_mem(cx, Inst::Pop { dst: *dst }, None, Some(off));
                            cx.w.set_reg(
                                Gpr::Rsp,
                                RegState {
                                    val: Value::StackRel(new_off),
                                    synced: true,
                                },
                            );
                            if *d != Gpr::Rsp {
                                self.set_reg_value(&mut cx.w, *d, Width::W64, Value::Unknown, true);
                            } else {
                                return Err(RewriteError::TraceFault {
                                    addr,
                                    what: "pop rsp with unknown slot",
                                });
                            }
                        }
                    }
                    Operand::Mem(m) => {
                        let a = self.addr_value(&cx.w, m);
                        let (mm, fs) = self.subst_mem(cx, m)?;
                        self.emit_mem(
                            cx,
                            Inst::Pop {
                                dst: Operand::Mem(mm),
                            },
                            fs,
                            Some(off),
                        );
                        cx.w.set_reg(
                            Gpr::Rsp,
                            RegState {
                                val: Value::StackRel(new_off),
                                synced: true,
                            },
                        );
                        self.store_shadow(&mut cx.w, a, 8, slot);
                    }
                    _ => {
                        return Err(RewriteError::TraceFault {
                            addr,
                            what: "bad pop",
                        })
                    }
                }
                Ok(Step::Continue(next))
            }

            // ---- SSE ------------------------------------------------------
            Inst::MovSd { dst, src } => {
                self.exec_movsd(cx, dst, src, addr)?;
                Ok(Step::Continue(next))
            }
            Inst::MovUpd { dst, src } => {
                self.exec_movupd(cx, dst, src, addr)?;
                Ok(Step::Continue(next))
            }
            Inst::Sse { op, dst, src } => {
                self.exec_sse(cx, *op, *dst, src, fresh)?;
                Ok(Step::Continue(next))
            }
            Inst::Ucomisd { a, b } => {
                let va = cx.w.xmm(*a).lanes[0];
                let vb = self.sse64_value(&cx.w, b);
                let force = force_flags || fresh;
                match (va, vb) {
                    (Value::Const(x), Value::Const(y)) if !force => {
                        cx.w.flags = FlagsVal::Known(alu::ucomisd_flags(
                            f64::from_bits(x),
                            f64::from_bits(y),
                        ));
                        self.elided();
                    }
                    _ => {
                        self.ensure_arch_xmm(cx, *a)?;
                        let (bb, fl) = self.subst_sse_src(cx, b, false)?;
                        self.emit_mem(cx, Inst::Ucomisd { a: *a, b: bb }, None, fl);
                        cx.w.flags = FlagsVal::Unknown;
                    }
                }
                Ok(Step::Continue(next))
            }
            Inst::Cvtsi2sd { w, dst, src } => {
                let v = self.int_value(&cx.w, src, *w);
                match v {
                    Value::Const(c) if !fresh => {
                        let f = (w.sext(c) as i64) as f64;
                        let mut st = cx.w.xmm(*dst);
                        st.lanes[0] = Value::Const(f.to_bits());
                        st.synced = false;
                        cx.w.set_xmm(*dst, st);
                        self.elided();
                    }
                    _ => {
                        self.ensure_arch_xmm(cx, *dst)?; // lane1 preserved
                        let (s, fl) = self.subst_int_src(cx, src, *w)?;
                        let s = no_imm(self, cx, s, src)?;
                        self.emit_mem(
                            cx,
                            Inst::Cvtsi2sd {
                                w: *w,
                                dst: *dst,
                                src: s,
                            },
                            None,
                            fl,
                        );
                        let mut st = cx.w.xmm(*dst);
                        st.lanes[0] = Value::Unknown;
                        st.synced = true;
                        cx.w.set_xmm(*dst, st);
                    }
                }
                Ok(Step::Continue(next))
            }
            Inst::Cvttsd2si { w, dst, src } => {
                let v = self.sse64_value(&cx.w, src);
                match v {
                    Value::Const(bits) if !fresh => {
                        let f = f64::from_bits(bits);
                        let c = alu::cvttsd2si(f, *w);
                        self.set_reg_value(&mut cx.w, *dst, *w, Value::Const(c), false);
                        self.elided();
                    }
                    _ => {
                        let (s, fl) = self.subst_sse_src(cx, src, false)?;
                        self.emit_mem(
                            cx,
                            Inst::Cvttsd2si {
                                w: *w,
                                dst: *dst,
                                src: s,
                            },
                            None,
                            fl,
                        );
                        self.set_reg_value(&mut cx.w, *dst, *w, Value::Unknown, true);
                    }
                }
                Ok(Step::Continue(next))
            }

            // ---- control flow ---------------------------------------------
            Inst::JmpRel { target } => self.goto(cx, *target, addr),
            Inst::JmpInd { src } => {
                let v = self.int_value(&cx.w, src, Width::W64);
                match v {
                    Value::Const(t) => self.goto(cx, t, addr),
                    _ => Err(RewriteError::IndirectUnknownJump { addr }),
                }
            }
            Inst::Jcc { cond, target } => match cx.w.flags {
                FlagsVal::Known(f) => {
                    let t = if f.cond(*cond) { *target } else { next };
                    self.elided();
                    self.goto(cx, t, addr)
                }
                FlagsVal::Stale => Err(RewriteError::UntrustedFlags { addr }),
                FlagsVal::Unknown => {
                    if !cx.wrote_flags {
                        cx.reads_flags_on_entry = true;
                    }
                    self.rec_decision("fork", || {
                        vec![
                            ("at".into(), format!("{addr:#x}")),
                            ("taken".into(), format!("{target:#x}")),
                            ("fall".into(), format!("{next:#x}")),
                        ]
                    });
                    let taken = self.enqueue(*target, &cx.w, false)?;
                    let fall = self.enqueue(next, &cx.w, false)?;
                    Ok(Step::End(Terminator::Jcc {
                        cond: *cond,
                        taken,
                        fall,
                    }))
                }
            },
            Inst::CallRel { target } => self.exec_call(cx, *target, next, addr),
            Inst::CallInd { src } => {
                let v = self.int_value(&cx.w, src, Width::W64);
                match v {
                    Value::Const(t) => self.exec_call(cx, t, next, addr),
                    _ => {
                        // Keep the indirect call: clobber per ABI.
                        self.materialize_call_args(cx)?;
                        let (s, fl) = self.subst_int_src(cx, src, Width::W64)?;
                        let s = no_imm(self, cx, s, src)?;
                        self.emit_mem(cx, Inst::CallInd { src: s }, None, fl);
                        self.clobber_after_call(cx);
                        self.stats.kept_calls += 1;
                        self.rec_decision("call-kept", || {
                            vec![("callee".into(), "indirect (unknown target)".into())]
                        });
                        Ok(Step::Continue(next))
                    }
                }
            }
            Inst::Ret => self.exec_ret(cx, addr),
        }
    }

    // ---- grouped handlers ---------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn exec_alu(
        &mut self,
        cx: &mut TraceCtx,
        op: AluOp,
        w: Width,
        dst: &Operand,
        src: &Operand,
        addr: u64,
        fresh: bool,
        force_flags: bool,
    ) -> Result<(), RewriteError> {
        let vd = self.int_value(&cx.w, dst, w);
        let vs = self.int_value(&cx.w, src, w);
        let (res, flags) = alu_value(op, w, vd, vs);
        let force = fresh || force_flags;

        match dst {
            Operand::Reg(d) if *d == Gpr::Rsp && op.writes_dst() => {
                // RSP arithmetic: always emitted in original (flag-accurate)
                // form with a substituted source.
                let Value::StackRel(_) = res else {
                    return Err(RewriteError::TraceFault {
                        addr,
                        what: "rsp arithmetic with non-constant operand",
                    });
                };
                let (s, fl) = self.subst_int_src(cx, src, w)?;
                self.emit_mem(
                    cx,
                    Inst::Alu {
                        op,
                        w,
                        dst: *dst,
                        src: s,
                    },
                    None,
                    fl,
                );
                cx.w.set_reg(
                    Gpr::Rsp,
                    RegState {
                        val: res,
                        synced: true,
                    },
                );
                cx.w.flags = FlagsVal::Unknown;
                Ok(())
            }
            Operand::Reg(d) => {
                let can_elide = if op.writes_dst() {
                    res.is_known()
                } else {
                    // cmp exists only for its flags; eliding it with
                    // uncomputable flags would leave stale runtime flags.
                    flags.known().is_some()
                };
                if can_elide && !force {
                    if op.writes_dst() {
                        self.set_reg_value(&mut cx.w, *d, w, res, false);
                    }
                    cx.w.flags = known_or_stale(flags);
                    self.elided();
                    return Ok(());
                }
                // Emit: destination register must be architectural for RMW.
                if op.writes_dst() {
                    self.ensure_arch_gpr(cx, *d)?;
                }
                let (mut s, fl) = self.subst_int_src(cx, src, w)?;
                if !op.writes_dst() {
                    // cmp: dst side must also be architectural if register.
                    self.ensure_arch_gpr(cx, *d)?;
                    // cmp reg, imm/reg/mem all fine.
                } else if let Operand::Imm(_) = s {
                    // fine: op reg, imm
                } else if let Operand::Mem(m) = &s {
                    self.maybe_hook(cx, m)?;
                }
                // Avoid imm-imm shapes (dst reg is fine).
                if let (Operand::Imm(_), false) = (&s, op.writes_dst()) {
                    // cmp reg, imm is fine too.
                    let _ = &mut s;
                }
                self.emit_mem(
                    cx,
                    Inst::Alu {
                        op,
                        w,
                        dst: *dst,
                        src: s,
                    },
                    None,
                    fl,
                );
                if op.writes_dst() {
                    let val = if fresh || !res.is_known() {
                        Value::Unknown
                    } else {
                        res
                    };
                    // Emitted op computes the true value from architectural
                    // inputs, so a known result is synced.
                    if matches!(val, Value::Unknown) {
                        self.set_reg_value(&mut cx.w, *d, w, Value::Unknown, true);
                    } else {
                        self.set_reg_value(&mut cx.w, *d, w, val, true);
                    }
                }
                cx.w.flags = if force { FlagsVal::Unknown } else { flags };
                Ok(())
            }
            Operand::Mem(m) => {
                let a = self.addr_value(&cx.w, m);
                if !op.writes_dst() {
                    // cmp [mem], src
                    if flags.known().is_some() && !force {
                        cx.w.flags = flags;
                        self.elided();
                        return Ok(());
                    }
                    let (mm, fl) = self.subst_mem(cx, m)?;
                    let (s, _) = self.subst_int_src(cx, src, w)?;
                    let s = match s {
                        Operand::Mem(_) => {
                            let Operand::Reg(r) = src else {
                                return Err(RewriteError::TraceFault {
                                    addr,
                                    what: "cmp with two memory operands",
                                });
                            };
                            self.ensure_arch_gpr(cx, *r)?;
                            Operand::Reg(*r)
                        }
                        s => s,
                    };
                    self.maybe_hook(cx, &mm)?;
                    self.emit_mem(
                        cx,
                        Inst::Alu {
                            op,
                            w,
                            dst: Operand::Mem(mm),
                            src: s,
                        },
                        None,
                        fl,
                    );
                    cx.w.flags = FlagsVal::Unknown;
                    return Ok(());
                }
                // Read-modify-write on memory: always emitted.
                let (mm, fs) = self.subst_mem(cx, m)?;
                let (s, _) = self.subst_int_src(cx, src, w)?;
                let s = match s {
                    Operand::Mem(_) => {
                        let Operand::Reg(r) = src else {
                            return Err(RewriteError::TraceFault {
                                addr,
                                what: "rmw with two memory operands",
                            });
                        };
                        self.ensure_arch_gpr(cx, *r)?;
                        Operand::Reg(*r)
                    }
                    s => s,
                };
                self.maybe_hook(cx, &mm)?;
                self.emit_mem(
                    cx,
                    Inst::Alu {
                        op,
                        w,
                        dst: Operand::Mem(mm),
                        src: s,
                    },
                    fs,
                    fs,
                );
                let stored = if fresh { Value::Unknown } else { res };
                self.store_shadow(&mut cx.w, a, w.bytes(), stored);
                cx.w.flags = if force { FlagsVal::Unknown } else { flags };
                Ok(())
            }
            _ => Err(RewriteError::TraceFault {
                addr,
                what: "bad alu dst",
            }),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_unary(
        &mut self,
        cx: &mut TraceCtx,
        op: UnOp,
        w: Width,
        dst: &Operand,
        addr: u64,
        fresh: bool,
        force_flags: bool,
    ) -> Result<(), RewriteError> {
        let v = self.int_value(&cx.w, dst, w);
        let (res, flags) = unop_value(op, w, v, cx.w.flags);
        let force = fresh || force_flags;
        match dst {
            Operand::Reg(d) if *d == Gpr::Rsp => {
                let Value::StackRel(_) = res else {
                    return Err(RewriteError::TraceFault {
                        addr,
                        what: "rsp unary",
                    });
                };
                self.emit(cx, Inst::Unary { op, w, dst: *dst });
                cx.w.set_reg(
                    Gpr::Rsp,
                    RegState {
                        val: res,
                        synced: true,
                    },
                );
                cx.w.flags = FlagsVal::Unknown;
                Ok(())
            }
            Operand::Reg(d) => {
                if res.is_known() && !force {
                    self.set_reg_value(&mut cx.w, *d, w, res, false);
                    cx.w.flags = if matches!(op, UnOp::Not) {
                        flags // `not` does not touch flags
                    } else {
                        known_or_stale(flags)
                    };
                    self.elided();
                } else {
                    self.ensure_arch_gpr(cx, *d)?;
                    self.emit(cx, Inst::Unary { op, w, dst: *dst });
                    let val = if fresh || !res.is_known() {
                        Value::Unknown
                    } else {
                        res
                    };
                    if matches!(val, Value::Unknown) {
                        self.set_reg_value(&mut cx.w, *d, w, Value::Unknown, true);
                    } else {
                        self.set_reg_value(&mut cx.w, *d, w, val, true);
                    }
                    cx.w.flags = if force { FlagsVal::Unknown } else { flags };
                }
                Ok(())
            }
            Operand::Mem(m) => {
                let a = self.addr_value(&cx.w, m);
                let (mm, fs) = self.subst_mem(cx, m)?;
                self.maybe_hook(cx, &mm)?;
                self.emit_mem(
                    cx,
                    Inst::Unary {
                        op,
                        w,
                        dst: Operand::Mem(mm),
                    },
                    fs,
                    fs,
                );
                let stored = if fresh { Value::Unknown } else { res };
                self.store_shadow(&mut cx.w, a, w.bytes(), stored);
                cx.w.flags = if force { FlagsVal::Unknown } else { flags };
                Ok(())
            }
            _ => Err(RewriteError::TraceFault {
                addr,
                what: "bad unary dst",
            }),
        }
    }

    fn exec_movsd(
        &mut self,
        cx: &mut TraceCtx,
        dst: &Operand,
        src: &Operand,
        addr: u64,
    ) -> Result<(), RewriteError> {
        match (dst, src) {
            (Operand::Xmm(d), Operand::Mem(m)) => {
                let a = self.addr_value(&cx.w, m);
                let v = self.load_known(&cx.w, a, 8);
                if v.is_known() {
                    cx.w.set_xmm(
                        *d,
                        XmmState {
                            lanes: [v, Value::Const(0)],
                            synced: false,
                        },
                    );
                    self.elided();
                } else {
                    let (mm, fl) = self.subst_mem(cx, m)?;
                    self.maybe_hook(cx, &mm)?;
                    self.emit_mem(
                        cx,
                        Inst::MovSd {
                            dst: *dst,
                            src: Operand::Mem(mm),
                        },
                        None,
                        fl,
                    );
                    cx.w.set_xmm(
                        *d,
                        XmmState {
                            lanes: [Value::Unknown, Value::Const(0)],
                            synced: true,
                        },
                    );
                }
                Ok(())
            }
            (Operand::Xmm(d), Operand::Xmm(s)) => {
                let sv = cx.w.xmm(*s).lanes[0];
                let dstate = cx.w.xmm(*d);
                if sv.is_known() {
                    cx.w.set_xmm(
                        *d,
                        XmmState {
                            lanes: [sv, dstate.lanes[1]],
                            synced: false,
                        },
                    );
                    self.elided();
                } else {
                    self.ensure_arch_xmm(cx, *d)?; // high lane preserved
                    self.emit(
                        cx,
                        Inst::MovSd {
                            dst: *dst,
                            src: *src,
                        },
                    );
                    let d1 = cx.w.xmm(*d).lanes[1];
                    cx.w.set_xmm(
                        *d,
                        XmmState {
                            lanes: [Value::Unknown, d1],
                            synced: true,
                        },
                    );
                }
                Ok(())
            }
            (Operand::Mem(m), Operand::Xmm(s)) => {
                let a = self.addr_value(&cx.w, m);
                let val = cx.w.xmm(*s).lanes[0];
                self.ensure_arch_xmm(cx, *s)?;
                let (mm, fs) = self.subst_mem(cx, m)?;
                self.maybe_hook(cx, &mm)?;
                self.emit_mem(
                    cx,
                    Inst::MovSd {
                        dst: Operand::Mem(mm),
                        src: *src,
                    },
                    fs,
                    None,
                );
                self.store_shadow(&mut cx.w, a, 8, val);
                Ok(())
            }
            _ => Err(RewriteError::TraceFault {
                addr,
                what: "bad movsd",
            }),
        }
    }

    fn exec_movupd(
        &mut self,
        cx: &mut TraceCtx,
        dst: &Operand,
        src: &Operand,
        addr: u64,
    ) -> Result<(), RewriteError> {
        match (dst, src) {
            (Operand::Xmm(d), _) => {
                let lanes = self.sse128_value(&cx.w, src);
                if lanes.iter().all(|l| l.is_known()) {
                    cx.w.set_xmm(
                        *d,
                        XmmState {
                            lanes,
                            synced: false,
                        },
                    );
                    self.elided();
                } else {
                    let (s, fl) = self.subst_sse_src(cx, src, true)?;
                    if let Operand::Mem(m) = &s {
                        self.maybe_hook(cx, m)?;
                    }
                    self.emit_mem(cx, Inst::MovUpd { dst: *dst, src: s }, None, fl);
                    cx.w.set_xmm(
                        *d,
                        XmmState {
                            lanes,
                            synced: true,
                        },
                    );
                }
                Ok(())
            }
            (Operand::Mem(m), Operand::Xmm(s)) => {
                let a = self.addr_value(&cx.w, m);
                let lanes = cx.w.xmm(*s).lanes;
                self.ensure_arch_xmm(cx, *s)?;
                let (mm, fs) = self.subst_mem(cx, m)?;
                self.maybe_hook(cx, &mm)?;
                self.emit_mem(
                    cx,
                    Inst::MovUpd {
                        dst: Operand::Mem(mm),
                        src: *src,
                    },
                    fs,
                    None,
                );
                self.store_shadow(&mut cx.w, a, 8, lanes[0]);
                let a_hi = match a {
                    Value::Const(x) => Value::Const(x + 8),
                    Value::StackRel(o) => Value::StackRel(o + 8),
                    Value::Unknown => Value::Unknown,
                };
                self.store_shadow(&mut cx.w, a_hi, 8, lanes[1]);
                Ok(())
            }
            _ => Err(RewriteError::TraceFault {
                addr,
                what: "bad movupd",
            }),
        }
    }

    fn exec_sse(
        &mut self,
        cx: &mut TraceCtx,
        op: SseOp,
        dst: Xmm,
        src: &Operand,
        fresh: bool,
    ) -> Result<(), RewriteError> {
        // xorpd with itself: canonical zeroing idiom.
        if op == SseOp::Xorpd {
            if let Operand::Xmm(s) = src {
                if *s == dst {
                    cx.w.set_xmm(
                        dst,
                        XmmState {
                            lanes: [Value::Const(0), Value::Const(0)],
                            synced: false,
                        },
                    );
                    self.elided();
                    return Ok(());
                }
            }
        }
        let dl = cx.w.xmm(dst).lanes;
        let packed = op.is_packed();
        let sl = if packed {
            self.sse128_value(&cx.w, src)
        } else {
            [self.sse64_value(&cx.w, src), Value::Unknown]
        };

        let computed: Option<[Value; 2]> = sse_compute(op, dl, sl);
        if let Some(lanes) = computed {
            if lanes.iter().all(|l| l.is_known()) && !fresh {
                cx.w.set_xmm(
                    dst,
                    XmmState {
                        lanes,
                        synced: false,
                    },
                );
                self.elided();
                return Ok(());
            }
        }
        // Emit.
        self.ensure_arch_xmm(cx, dst)?;
        let (s, fl) = self.subst_sse_src(cx, src, packed)?;
        if let Operand::Mem(m) = &s {
            self.maybe_hook(cx, m)?;
        }
        self.emit_mem(cx, Inst::Sse { op, dst, src: s }, None, fl);
        let lanes = match computed {
            Some(lanes) if !fresh => lanes,
            _ => {
                let mut l = [Value::Unknown, Value::Unknown];
                if !packed {
                    l[1] = cx.w.xmm(dst).lanes[1];
                }
                l
            }
        };
        cx.w.set_xmm(
            dst,
            XmmState {
                lanes,
                synced: true,
            },
        );
        Ok(())
    }

    // ---- calls and returns ----------------------------------------------

    fn exec_call(
        &mut self,
        cx: &mut TraceCtx,
        target: u64,
        next: u64,
        addr: u64,
    ) -> Result<Step, RewriteError> {
        let callee_opts = self.opts_for(target);
        if callee_opts.inline {
            if cx.w.inline_stack.len() >= 128 {
                return Err(RewriteError::TraceFault {
                    addr,
                    what: "inline depth limit (recursion?)",
                });
            }
            cx.w.inline_stack.push(InlineFrame {
                ret_addr: next,
                rsp_at_call: cx.w.rsp_off(),
                caller_fn: cx.w.cur_fn,
            });
            cx.enter_fn(target, callee_opts);
            self.stats.inlined_calls += 1;
            let (img, depth) = (self.img, cx.w.inline_stack.len());
            self.rec_decision("inline", || {
                vec![
                    ("callee".into(), callee_label(img, target)),
                    ("depth".into(), depth.to_string()),
                ]
            });
            Ok(Step::Continue(target))
        } else {
            self.materialize_call_args(cx)?;
            self.emit(cx, Inst::CallRel { target });
            self.clobber_after_call(cx);
            self.stats.kept_calls += 1;
            let img = self.img;
            self.rec_decision("call-kept", || {
                vec![("callee".into(), callee_label(img, target))]
            });
            Ok(Step::Continue(next))
        }
    }

    /// §III.G: "Calls configured to not be inlined are kept, generating
    /// compensation code to make registers 'unknown' which are parameters
    /// according to the ABI" — i.e. materialize every known-but-unsynced
    /// argument register so the callee sees real values.
    fn materialize_call_args(&mut self, cx: &mut TraceCtx) -> Result<(), RewriteError> {
        for r in Gpr::SYSV_ARGS {
            self.ensure_arch_gpr(cx, r)?;
        }
        for x in Xmm::SYSV_ARGS {
            self.ensure_arch_xmm(cx, x)?;
        }
        Ok(())
    }

    /// §III.G: "we assume all caller-saved registers to be dead/unknown,
    /// while all callee-save registers keep their known state."
    fn clobber_after_call(&mut self, cx: &mut TraceCtx) {
        for r in Gpr::ALL {
            if !r.is_callee_saved() {
                cx.w.set_reg(r, RegState::UNKNOWN);
            }
        }
        for x in 0..16 {
            cx.w.xmm[x] = XmmState::UNKNOWN;
        }
        cx.w.flags = FlagsVal::Unknown;
        // The callee may store anywhere it legally can: poison tracked
        // global stores; its own frame lives below our RSP.
        for v in cx.w.gshadow.values_mut() {
            *v = Value::Unknown;
        }
        let rsp = cx.w.rsp_off();
        cx.w.invalidate_frame_below(rsp);
        if cx.w.frame_escaped {
            for v in cx.w.frame.values_mut() {
                *v = Value::Unknown;
            }
        }
    }

    fn exec_ret(&mut self, cx: &mut TraceCtx, addr: u64) -> Result<Step, RewriteError> {
        if let Some(frame) = cx.w.inline_stack.pop() {
            if cx.w.rsp_off() != frame.rsp_at_call {
                return Err(RewriteError::StackImbalance { addr });
            }
            // The callee's frame is dead memory now, as after a kept call.
            cx.w.invalidate_frame_below(frame.rsp_at_call);
            cx.enter_fn(frame.caller_fn, self.opts_for(frame.caller_fn));
            self.elided();
            return Ok(Step::Continue(frame.ret_addr));
        }
        if cx.w.rsp_off() != 0 {
            return Err(RewriteError::StackImbalance { addr });
        }
        if let Some(h) = self.cfg.exit_hook {
            let func = self.entry_fn;
            self.inject_hook(cx, h, HookArg::Const(func))?;
        }
        // Materialize the ABI-visible state: return registers and
        // callee-saved registers (pop elision may have left them unsynced).
        match self.cfg.ret {
            crate::config::RetKind::Int => self.ensure_arch_gpr_for(cx, Gpr::Rax, false)?,
            crate::config::RetKind::F64 => self.ensure_arch_xmm(cx, Xmm::Xmm0)?,
            crate::config::RetKind::Void => {}
        }
        for r in Gpr::SYSV_CALLEE_SAVED {
            self.ensure_arch_gpr_for(cx, r, false)?;
        }
        self.emit(cx, Inst::Ret);
        Ok(Step::End(Terminator::Ret))
    }

    /// Unconditional transfer: backward jumps become block boundaries
    /// (enabling loop closure and the variant machinery); forward jumps are
    /// traced through.
    fn goto(&mut self, cx: &mut TraceCtx, target: u64, from: u64) -> Result<Step, RewriteError> {
        if target <= from {
            let bid = self.enqueue(target, &cx.w, false)?;
            Ok(Step::End(Terminator::Jmp(bid)))
        } else {
            Ok(Step::Continue(target))
        }
    }
}

/// Human-readable callee label for decision events: symbol if known. Takes
/// the symbol table's lock and scans it, so only a recorder's closure calls it.
fn callee_label(img: &brew_image::Image, target: u64) -> String {
    img.symbol_at(target)
        .unwrap_or_else(|| format!("{target:#x}"))
}

/// Can `c` be an immediate for a `w`-width integer instruction?
pub(crate) fn imm_for(w: Width, c: u64) -> Option<i64> {
    match w {
        Width::W64 => {
            let v = c as i64;
            if v == (v as i32) as i64 {
                Some(v)
            } else {
                None
            }
        }
        Width::W32 => Some((c as u32) as i32 as i64),
        Width::W8 => Some((c as u8) as i64),
    }
}

/// Replace an immediate operand with a materialized register when the
/// instruction form has no immediate encoding (movsxd, idiv, ...).
fn no_imm(
    t: &mut Tracer,
    cx: &mut TraceCtx,
    substituted: Operand,
    original: &Operand,
) -> Result<Operand, RewriteError> {
    match substituted {
        Operand::Imm(_) => {
            let Operand::Reg(r) = original else {
                return Err(RewriteError::TraceFault {
                    addr: 0,
                    what: "immediate in register-only position",
                });
            };
            t.ensure_arch_gpr(cx, *r)?;
            Ok(Operand::Reg(*r))
        }
        s => Ok(s),
    }
}

/// Elided flag-writers: computed flags stay known; uncomputable flags are
/// stale (the architectural flags no longer match the original program).
fn known_or_stale(f: FlagsVal) -> FlagsVal {
    match f {
        FlagsVal::Known(k) => FlagsVal::Known(k),
        _ => FlagsVal::Stale,
    }
}

fn sse_compute(op: SseOp, d: [Value; 2], s: [Value; 2]) -> Option<[Value; 2]> {
    fn f(op: SseOp, a: Value, b: Value) -> Value {
        let (Value::Const(x), Value::Const(y)) = (a, b) else {
            return Value::Unknown;
        };
        match alu::sse_arith(op, f64::from_bits(x), f64::from_bits(y)) {
            Some(r) => Value::Const(r.to_bits()),
            None => Value::Unknown,
        }
    }
    match op {
        SseOp::Addsd | SseOp::Subsd | SseOp::Mulsd | SseOp::Divsd => {
            Some([f(op, d[0], s[0]), d[1]])
        }
        SseOp::Addpd | SseOp::Subpd | SseOp::Mulpd | SseOp::Divpd => {
            Some([f(op, d[0], s[0]), f(op, d[1], s[1])])
        }
        SseOp::Xorpd => match (d, s) {
            ([Value::Const(a0), Value::Const(a1)], [Value::Const(b0), Value::Const(b1)]) => {
                Some([Value::Const(a0 ^ b0), Value::Const(a1 ^ b1)])
            }
            _ => Some([Value::Unknown, Value::Unknown]),
        },
        SseOp::Unpcklpd => Some([d[0], s[0]]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FuncOpts, RewriteConfig};
    use brew_image::Image;

    const CALLER: u64 = 0x40_1000;
    const CALLEE: u64 = 0x40_2000;

    /// An inlined `ret` leaves the callee's frame behind as dead memory:
    /// the caller keeps its own slots and the one at the call's `rsp`,
    /// and tracks nothing below it.
    #[test]
    fn an_inlined_return_forgets_the_callees_frame() {
        let (img, cfg) = (Image::new(), RewriteConfig::new());
        let mut t = Tracer::new(&img, &cfg, Vec::new());
        let mut w = World::entry(CALLER);
        w.set_reg(
            Gpr::Rsp,
            RegState {
                val: Value::StackRel(-16),
                synced: true,
            },
        );
        w.inline_stack.push(InlineFrame {
            ret_addr: CALLER + 5,
            rsp_at_call: -16,
            caller_fn: CALLER,
        });
        w.cur_fn = CALLEE;
        for (off, v) in [(-8, 1), (-16, 2), (-24, 3), (-32, 4)] {
            w.set_frame_slot(off, Value::Const(v));
        }
        let mut cx = TraceCtx {
            w,
            opts: FuncOpts::default(),
            out: Vec::new(),
            wrote_flags: false,
            reads_flags_on_entry: false,
        };
        let step = t.exec_inst(&mut cx, &Inst::Ret, CALLEE + 0x10, CALLEE + 0x11);
        assert!(matches!(step, Ok(Step::Continue(a)) if a == CALLER + 5));
        assert_eq!(cx.w.cur_fn, CALLER);
        let tracked: Vec<_> = cx.w.frame.iter().collect();
        assert_eq!(
            tracked,
            [(-16, Value::Const(2)), (-8, Value::Const(1))],
            "only the caller's frame is tracked"
        );
    }
}
