//! The execution engine: concrete x86-subset semantics over an [`Image`],
//! with a SysV AMD64 call harness and a decoded-instruction cache.

use crate::cost::{CostModel, Stats};
use crate::state::CpuState;
use brew_image::{Image, MemFault};
use brew_x86::alu;
use brew_x86::prelude::*;
use brew_x86::CodeTable;
use std::fmt;

/// Sentinel return address marking the end of a harness call. Lives outside
/// every segment, so runaway code cannot accidentally execute it.
pub const STOP_ADDR: u64 = 0x5AFE_57A9;

/// Execution faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// Instruction at `addr` could not be decoded.
    Decode {
        /// Address of the undecodable instruction.
        addr: u64,
        /// Underlying decoder error.
        err: DecodeError,
    },
    /// A data access faulted.
    Mem(MemFault),
    /// `idiv` by zero or overflowing quotient.
    Divide {
        /// Address of the faulting instruction.
        addr: u64,
    },
    /// `ud2` executed.
    Trap {
        /// Address of the trap.
        addr: u64,
    },
    /// The configured instruction budget was exhausted.
    OutOfFuel,
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Decode { addr, err } => write!(f, "decode fault at {addr:#x}: {err}"),
            EmuError::Mem(m) => write!(f, "{m}"),
            EmuError::Divide { addr } => write!(f, "divide error at {addr:#x}"),
            EmuError::Trap { addr } => write!(f, "trap (ud2) at {addr:#x}"),
            EmuError::OutOfFuel => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for EmuError {}

impl From<MemFault> for EmuError {
    fn from(m: MemFault) -> Self {
        EmuError::Mem(m)
    }
}

/// Arguments for a SysV AMD64 call (register arguments only; the subset's
/// compiler never passes arguments on the stack).
#[derive(Debug, Clone, Default)]
pub struct CallArgs {
    ints: Vec<u64>,
    fps: Vec<f64>,
}

impl CallArgs {
    /// No arguments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an integer/pointer argument (at most 6).
    pub fn int(mut self, v: i64) -> Self {
        assert!(self.ints.len() < 6, "more than 6 integer args unsupported");
        self.ints.push(v as u64);
        self
    }

    /// Append a pointer argument.
    pub fn ptr(self, v: u64) -> Self {
        self.int(v as i64)
    }

    /// Append a double argument (at most 8).
    pub fn f64(mut self, v: f64) -> Self {
        assert!(self.fps.len() < 8, "more than 8 fp args unsupported");
        self.fps.push(v);
        self
    }

    /// The integer arguments.
    pub fn ints(&self) -> &[u64] {
        &self.ints
    }

    /// The floating-point arguments.
    pub fn fps(&self) -> &[f64] {
        &self.fps
    }
}

/// Result of a harness call.
#[derive(Debug, Clone, Copy)]
pub struct CallOutcome {
    /// RAX at return.
    pub ret_int: u64,
    /// XMM0 low lane at return.
    pub ret_f64: f64,
    /// Statistics for this call only.
    pub stats: Stats,
}

/// Observer invoked at every executed call instruction with
/// `(call-site, target, cpu-state-before-entry)`.
pub type CallObserver<'o> = dyn FnMut(u64, u64, &CpuState) + 'o;

/// One decode-cache entry: the instruction, and whether it loads or stores
/// — what the cost model and the statistics ask of every executed
/// instruction, answered once per decode.
struct Cached {
    d: Decoded,
    loads: bool,
    stores: bool,
}

/// Decoded instructions of one image at one code version.
struct DecodeCache {
    /// `(Image::uid, Image::code_version)` the entries were decoded at.
    key: (u64, u64),
    code: CodeTable<Cached>,
}

impl DecodeCache {
    fn new() -> Self {
        DecodeCache {
            key: (0, u64::MAX),
            code: CodeTable::default(),
        }
    }

    /// The instruction at `addr`, decoded on first sight. Everything is
    /// dropped first if `img` is not the image, or not at the code version,
    /// the entries were decoded from.
    #[inline]
    fn lookup(&mut self, img: &Image, addr: u64) -> Result<&Cached, EmuError> {
        let key = (img.uid(), img.code_version());
        if key != self.key {
            self.key = key;
            self.code.clear();
        }
        self.code.get_or_decode(addr, || fetch(img, addr))
    }
}

#[cold]
fn fetch(img: &Image, addr: u64) -> Result<Cached, EmuError> {
    let mut window = [0u8; 16];
    let n = img.code_window_into(addr, &mut window).map_err(|_| {
        EmuError::Mem(MemFault {
            addr,
            size: 1,
            write: false,
        })
    })?;
    let d = decode(&window[..n], addr).map_err(|err| EmuError::Decode { addr, err })?;
    Ok(Cached {
        loads: d.inst.mem_load().is_some(),
        stores: d.inst.mem_store().is_some(),
        d,
    })
}

/// The virtual machine: CPU state + cost model + decode cache.
///
/// The image is borrowed per [`Machine::call`], so the rewriter can own and
/// mutate it between calls; the decode cache auto-invalidates via
/// [`Image::code_version`].
pub struct Machine<'o> {
    /// Architectural state (reset at every harness call).
    pub cpu: CpuState,
    /// Cost model used to charge cycles.
    pub cost: CostModel,
    /// Instruction budget per harness call.
    pub fuel: u64,
    cache: DecodeCache,
    observer: Option<Box<CallObserver<'o>>>,
    stack_top: Option<u64>,
}

impl Default for Machine<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'o> Machine<'o> {
    /// A machine with the default cost model and a 2^33 instruction budget.
    pub fn new() -> Self {
        Machine {
            cpu: CpuState::default(),
            cost: CostModel::default(),
            fuel: 1 << 33,
            cache: DecodeCache::new(),
            observer: None,
            stack_top: None,
        }
    }

    /// Give this machine its own stack region: [`Machine::call`] starts
    /// `rsp` at `top` instead of [`Image::stack_top`]. Threads sharing one
    /// image must each run a machine with a disjoint stack slice — the
    /// image's stack segment is process-global, exactly like real threads
    /// carving a shared address space into per-thread stacks.
    pub fn set_stack_top(&mut self, top: u64) {
        self.stack_top = Some(top);
    }

    /// Install an observer for executed call instructions (used by the value
    /// profiler; §III.D of the paper collects such statistics to drive
    /// guarded specialization).
    pub fn set_call_observer(&mut self, obs: Box<CallObserver<'o>>) {
        self.observer = Some(obs);
    }

    /// Remove the call observer.
    pub fn clear_call_observer(&mut self) {
        self.observer = None;
    }

    /// Execute one instruction at `cpu.rip`. Returns the cycles charged.
    pub fn step(&mut self, img: &Image, stats: &mut Stats) -> Result<(), EmuError> {
        let addr = self.cpu.rip;
        // Executed in place: the entry stays borrowed from the cache while
        // the body mutates `cpu`, a disjoint field.
        let Cached {
            d: Decoded { inst, len },
            loads,
            stores,
        } = self.cache.lookup(img, addr)?;
        let cpu = &mut self.cpu;
        let next = addr + *len as u64;
        let mut new_rip = next;
        let mut taken = false;

        match inst {
            Inst::Mov { w, dst, src } => {
                let v = cpu.read_int(img, src, *w)?;
                cpu.write_int(img, dst, *w, v)?;
            }
            Inst::MovAbs { dst, imm } => cpu.set(*dst, *imm),
            Inst::Movsxd { dst, src } => {
                let v = cpu.read_int(img, src, Width::W32)?;
                cpu.set(*dst, Width::W32.sext(v));
            }
            Inst::Movzx8 { w, dst, src } => {
                let v = cpu.read_int(img, src, Width::W8)?;
                cpu.set_w(*dst, *w, v & 0xFF);
            }
            Inst::Lea { dst, src } => {
                let a = cpu.ea(src);
                cpu.set(*dst, a);
            }
            Inst::Alu { op, w, dst, src } => {
                let a = cpu.read_int(img, dst, *w)?;
                let b = cpu.read_int(img, src, *w)?;
                let (r, f) = alu::alu(*op, *w, a, b);
                cpu.flags = f;
                if op.writes_dst() {
                    cpu.write_int(img, dst, *w, r)?;
                }
            }
            Inst::Test { w, a, b } => {
                let av = cpu.read_int(img, a, *w)?;
                let bv = cpu.read_int(img, b, *w)?;
                cpu.flags = alu::test(*w, av, bv);
            }
            Inst::Imul { w, dst, src } => {
                let a = cpu.get(*dst);
                let b = cpu.read_int(img, src, *w)?;
                let (r, f) = alu::imul(*w, a, b);
                cpu.flags = f;
                cpu.set_w(*dst, *w, r);
            }
            Inst::ImulImm { w, dst, src, imm } => {
                let a = cpu.read_int(img, src, *w)?;
                let (r, f) = alu::imul(*w, a, *imm as i64 as u64);
                cpu.flags = f;
                cpu.set_w(*dst, *w, r);
            }
            Inst::Unary { op, w, dst } => {
                let v = cpu.read_int(img, dst, *w)?;
                let (r, f) = alu::unop(*op, *w, v, cpu.flags);
                cpu.flags = f;
                cpu.write_int(img, dst, *w, r)?;
            }
            Inst::Shift { op, w, dst, count } => {
                let v = cpu.read_int(img, dst, *w)?;
                let c = match count {
                    ShiftCount::Imm(i) => *i,
                    ShiftCount::Cl => cpu.get(Gpr::Rcx) as u8,
                };
                let (r, f) = alu::shift(*op, *w, v, c, cpu.flags);
                cpu.flags = f;
                cpu.write_int(img, dst, *w, r)?;
            }
            Inst::Cqo { w } => {
                let a = cpu.get(Gpr::Rax);
                match w {
                    Width::W64 => cpu.set(Gpr::Rdx, ((a as i64) >> 63) as u64),
                    _ => cpu.set_w(
                        Gpr::Rdx,
                        Width::W32,
                        (((a as u32 as i32) >> 31) as u32) as u64,
                    ),
                }
            }
            Inst::Idiv { w, src } => {
                let hi = cpu.get(Gpr::Rdx);
                let lo = cpu.get(Gpr::Rax);
                let d = cpu.read_int(img, src, *w)?;
                let (q, r) = alu::idiv(*w, hi, lo, d).ok_or(EmuError::Divide { addr })?;
                cpu.set_w(Gpr::Rax, *w, q);
                cpu.set_w(Gpr::Rdx, *w, r);
            }
            Inst::Push { src } => {
                let v = cpu.read_int(img, src, Width::W64)?;
                cpu.push(img, v)?;
            }
            Inst::Pop { dst } => {
                let v = cpu.pop(img)?;
                cpu.write_int(img, dst, Width::W64, v)?;
            }
            Inst::CallRel { target } => {
                if let Some(obs) = self.observer.as_mut() {
                    obs(addr, *target, cpu);
                }
                cpu.push(img, next)?;
                new_rip = *target;
            }
            Inst::CallInd { src } => {
                let target = cpu.read_int(img, src, Width::W64)?;
                if let Some(obs) = self.observer.as_mut() {
                    obs(addr, target, cpu);
                }
                cpu.push(img, next)?;
                new_rip = target;
            }
            Inst::Ret => {
                new_rip = cpu.pop(img)?;
            }
            Inst::JmpRel { target } => new_rip = *target,
            Inst::JmpInd { src } => new_rip = cpu.read_int(img, src, Width::W64)?,
            Inst::Jcc { cond, target } => {
                taken = cpu.flags.cond(*cond);
                if taken {
                    new_rip = *target;
                }
            }
            Inst::Setcc { cond, dst } => {
                let v = cpu.flags.cond(*cond) as u64;
                cpu.write_int(img, dst, Width::W8, v)?;
            }
            Inst::MovSd { dst, src } => match (dst, src) {
                (Operand::Xmm(d), Operand::Mem(m)) => {
                    let v = img.read_u64(cpu.ea(m))?;
                    // movsd xmm, m64 zeroes the high lane.
                    cpu.xmm[d.number() as usize] = [v, 0];
                }
                (Operand::Xmm(d), Operand::Xmm(s)) => {
                    let v = cpu.xmm[s.number() as usize][0];
                    cpu.set_xmm_low(*d, v); // reg-reg keeps the high lane
                }
                (Operand::Mem(m), Operand::Xmm(s)) => {
                    let v = cpu.xmm[s.number() as usize][0];
                    img.write_u64(cpu.ea(m), v)?;
                }
                _ => unreachable!("bad movsd operands"),
            },
            Inst::MovUpd { dst, src } => match (dst, src) {
                (Operand::Xmm(d), s) => {
                    let v = cpu.read_sse128(img, s)?;
                    cpu.xmm[d.number() as usize] = v;
                }
                (Operand::Mem(m), Operand::Xmm(s)) => {
                    let v = cpu.xmm[s.number() as usize];
                    let a = cpu.ea(m);
                    img.write_u64(a, v[0])?;
                    img.write_u64(a.wrapping_add(8), v[1])?;
                }
                _ => unreachable!("bad movupd operands"),
            },
            Inst::Sse { op, dst, src } => {
                let d = dst.number() as usize;
                match op {
                    SseOp::Addsd | SseOp::Subsd | SseOp::Mulsd | SseOp::Divsd => {
                        let a = f64::from_bits(cpu.xmm[d][0]);
                        let b = f64::from_bits(cpu.read_sse64(img, src)?);
                        let r = alu::sse_arith(*op, a, b).expect("arithmetic op");
                        cpu.xmm[d][0] = r.to_bits();
                    }
                    SseOp::Addpd | SseOp::Subpd | SseOp::Mulpd | SseOp::Divpd => {
                        let b = cpu.read_sse128(img, src)?;
                        for (lane, bv) in b.iter().enumerate() {
                            let a = f64::from_bits(cpu.xmm[d][lane]);
                            let bv = f64::from_bits(*bv);
                            cpu.xmm[d][lane] =
                                alu::sse_arith(*op, a, bv).expect("arithmetic op").to_bits();
                        }
                    }
                    SseOp::Xorpd => {
                        let b = cpu.read_sse128(img, src)?;
                        cpu.xmm[d][0] ^= b[0];
                        cpu.xmm[d][1] ^= b[1];
                    }
                    SseOp::Unpcklpd => {
                        let b = cpu.read_sse128(img, src)?;
                        cpu.xmm[d][1] = b[0];
                    }
                }
            }
            Inst::Ucomisd { a, b } => {
                let av = f64::from_bits(cpu.xmm[a.number() as usize][0]);
                let bv = f64::from_bits(cpu.read_sse64(img, b)?);
                cpu.flags = alu::ucomisd_flags(av, bv);
            }
            Inst::Cvtsi2sd { w, dst, src } => {
                let v = cpu.read_int(img, src, *w)?;
                let f = (w.sext(v) as i64) as f64;
                cpu.set_xmm_low(*dst, f.to_bits());
            }
            Inst::Cvttsd2si { w, dst, src } => {
                let f = f64::from_bits(cpu.read_sse64(img, src)?);
                let v = alu::cvttsd2si(f, *w);
                cpu.set_w(*dst, *w, v);
            }
            Inst::Nop => {}
            Inst::Ud2 => return Err(EmuError::Trap { addr }),
        }

        let cycles = self.cost.cost_of(inst, taken, *loads, *stores);
        stats.record_of(inst, taken, cycles, *loads, *stores);
        cpu.rip = new_rip;
        Ok(())
    }

    /// Run from `cpu.rip` until control returns to [`STOP_ADDR`] or the fuel
    /// budget runs out.
    pub fn run(&mut self, img: &Image, stats: &mut Stats) -> Result<(), EmuError> {
        let mut fuel = self.fuel;
        while self.cpu.rip != STOP_ADDR {
            if fuel == 0 {
                return Err(EmuError::OutOfFuel);
            }
            fuel -= 1;
            self.step(img, stats)?;
        }
        Ok(())
    }

    /// Call the function at `func` with SysV register arguments and run it
    /// to completion. The CPU state is reset first; callee-saved registers
    /// are seeded with recognizable canaries and checked on return in debug
    /// builds.
    pub fn call(
        &mut self,
        img: &Image,
        func: u64,
        args: &CallArgs,
    ) -> Result<CallOutcome, EmuError> {
        self.cpu = CpuState::default();
        let sp = self.stack_top.unwrap_or_else(|| img.stack_top()) & !0xF;
        self.cpu.set(Gpr::Rsp, sp);
        for (i, &v) in args.ints().iter().enumerate() {
            self.cpu.set(Gpr::SYSV_ARGS[i], v);
        }
        for (i, &v) in args.fps().iter().enumerate() {
            self.cpu.xmm[Xmm::SYSV_ARGS[i].number() as usize] = [v.to_bits(), 0];
        }
        // Seed callee-saved registers so an ABI violation is observable.
        for (i, r) in Gpr::SYSV_CALLEE_SAVED.iter().enumerate() {
            self.cpu.set(*r, 0x00CA_11EE_0000 + i as u64);
        }
        let saved = Gpr::SYSV_CALLEE_SAVED.map(|r| self.cpu.get(r));

        self.cpu.push(img, STOP_ADDR)?;
        self.cpu.rip = func;
        let mut stats = Stats::default();
        self.run(img, &mut stats)?;

        debug_assert_eq!(
            self.cpu.rsp(),
            sp,
            "callee must restore rsp (function at {func:#x})"
        );
        for (i, r) in Gpr::SYSV_CALLEE_SAVED.iter().enumerate() {
            debug_assert_eq!(
                self.cpu.get(*r),
                saved[i],
                "callee-saved {r} clobbered by function at {func:#x}"
            );
        }

        Ok(CallOutcome {
            ret_int: self.cpu.get(Gpr::Rax),
            ret_f64: self.cpu.xmm_f64(Xmm::Xmm0),
            stats,
        })
    }
}

/// Operand access of the interpreter. These live on the CPU state, not the
/// machine, so that [`Machine::step`] can execute from an instruction it
/// borrows out of the machine's decode cache.
impl CpuState {
    fn ea(&self, m: &MemRef) -> u64 {
        let mut a = m.disp as i64 as u64;
        if let Some(b) = m.base {
            a = a.wrapping_add(self.get(b));
        }
        if let Some((i, s)) = m.index {
            a = a.wrapping_add(self.get(i).wrapping_mul(s as u64));
        }
        a
    }

    /// Read an integer operand at width `w`.
    fn read_int(&self, img: &Image, op: &Operand, w: Width) -> Result<u64, EmuError> {
        Ok(match op {
            Operand::Reg(r) => w.trunc(self.get(*r)),
            Operand::Imm(i) => w.trunc(*i as u64),
            Operand::Mem(m) => img.read_uint(self.ea(m), w.bytes())?,
            Operand::Xmm(_) => unreachable!("xmm operand in integer context"),
        })
    }

    /// Write an integer result at width `w`.
    fn write_int(&mut self, img: &Image, op: &Operand, w: Width, v: u64) -> Result<(), EmuError> {
        match op {
            Operand::Reg(r) => self.set_w(*r, w, v),
            Operand::Mem(m) => img.write_uint(self.ea(m), w.bytes(), v)?,
            _ => unreachable!("bad integer destination"),
        }
        Ok(())
    }

    /// Read a 64-bit lane for SSE scalar ops (xmm low lane or m64).
    fn read_sse64(&self, img: &Image, op: &Operand) -> Result<u64, EmuError> {
        Ok(match op {
            Operand::Xmm(x) => self.xmm[x.number() as usize][0],
            Operand::Mem(m) => img.read_u64(self.ea(m))?,
            _ => unreachable!("bad sse64 operand"),
        })
    }

    /// Read both 64-bit lanes for packed ops (xmm or m128).
    fn read_sse128(&self, img: &Image, op: &Operand) -> Result<[u64; 2], EmuError> {
        Ok(match op {
            Operand::Xmm(x) => self.xmm[x.number() as usize],
            Operand::Mem(m) => {
                let a = self.ea(m);
                [img.read_u64(a)?, img.read_u64(a.wrapping_add(8))?]
            }
            _ => unreachable!("bad sse128 operand"),
        })
    }

    fn push(&mut self, img: &Image, v: u64) -> Result<(), EmuError> {
        let sp = self.rsp().wrapping_sub(8);
        self.set(Gpr::Rsp, sp);
        img.write_u64(sp, v)?;
        Ok(())
    }

    fn pop(&mut self, img: &Image) -> Result<u64, EmuError> {
        let sp = self.rsp();
        let v = img.read_u64(sp)?;
        self.set(Gpr::Rsp, sp.wrapping_add(8));
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brew_x86::encode::encode;

    /// Assemble a function body into a fresh image and return (image, entry).
    fn asm(insts: &[Inst]) -> (Image, u64) {
        let img = Image::new();
        // Two-pass: lengths are address-independent in this subset.
        let lens: Vec<usize> = insts.iter().map(|i| encoded_len(i).unwrap()).collect();
        let total: usize = lens.iter().sum();
        let base = brew_image::layout::CODE_BASE;
        let mut bytes = Vec::with_capacity(total);
        let mut addr = base;
        for i in insts {
            encode(i, addr, &mut bytes).unwrap();
            addr = base + bytes.len() as u64;
        }
        let entry = img.alloc_code(&bytes);
        assert_eq!(entry, base);
        (img, entry)
    }

    #[test]
    fn add_function() {
        // long add(long a, long b) { return a + b; }
        let (img, f) = asm(&[
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Gpr::Rdi.into(),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Gpr::Rsi.into(),
            },
            Inst::Ret,
        ]);
        let mut m = Machine::new();
        let out = m.call(&img, f, &CallArgs::new().int(40).int(2)).unwrap();
        assert_eq!(out.ret_int, 42);
        assert_eq!(out.stats.insts, 3);
    }

    #[test]
    fn fp_function() {
        // double fma_ish(double a, double b) { return a * b + a; }
        let (img, f) = asm(&[
            Inst::MovSd {
                dst: Xmm::Xmm2.into(),
                src: Xmm::Xmm0.into(),
            },
            Inst::Sse {
                op: SseOp::Mulsd,
                dst: Xmm::Xmm0,
                src: Xmm::Xmm1.into(),
            },
            Inst::Sse {
                op: SseOp::Addsd,
                dst: Xmm::Xmm0,
                src: Xmm::Xmm2.into(),
            },
            Inst::Ret,
        ]);
        let mut m = Machine::new();
        let out = m.call(&img, f, &CallArgs::new().f64(3.0).f64(4.0)).unwrap();
        assert_eq!(out.ret_f64, 15.0);
    }

    #[test]
    fn loop_sums_memory() {
        // long sum(long* p, long n): rax=0; while(n--) rax += *p++;
        let loop_top = brew_image::layout::CODE_BASE + 7 + 4; // after first two insts
        let (img, f) = asm(&[
            // mov rax, 0 (7 bytes)
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(0),
            },
            // test rsi, rsi (4? bytes: 48 85 F6 = 3)... compute via encoded_len
            Inst::Test {
                w: Width::W64,
                a: Gpr::Rsi.into(),
                b: Gpr::Rsi.into(),
            },
            Inst::Jcc {
                cond: Cond::E,
                target: 0,
            }, // patched below
            // loop: add rax, [rdi]; add rdi, 8; dec rsi; jne loop
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::base(Gpr::Rdi).into(),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rdi.into(),
                src: Operand::Imm(8),
            },
            Inst::Unary {
                op: UnOp::Dec,
                w: Width::W64,
                dst: Gpr::Rsi.into(),
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: 0,
            }, // patched below
            Inst::Ret,
        ]);
        let _ = loop_top;
        // Patch the branch targets by reassembling with real addresses.
        // Compute instruction addresses.
        let insts_len: Vec<usize> = {
            let win = img.code_window(f, 256).unwrap();
            let (is, _) = decode_all(&win, f);
            is.iter()
                .map(|(a, i)| {
                    let _ = a;
                    encoded_len(i).unwrap()
                })
                .collect()
        };
        let mut addrs = vec![f];
        for l in &insts_len {
            addrs.push(addrs.last().unwrap() + *l as u64);
        }
        // Rebuild with jcc targets: index 2 -> ret (addrs[7]); index 6 -> loop top (addrs[3]).
        let body = [
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(0),
            },
            Inst::Test {
                w: Width::W64,
                a: Gpr::Rsi.into(),
                b: Gpr::Rsi.into(),
            },
            Inst::Jcc {
                cond: Cond::E,
                target: addrs[7],
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: MemRef::base(Gpr::Rdi).into(),
            },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rdi.into(),
                src: Operand::Imm(8),
            },
            Inst::Unary {
                op: UnOp::Dec,
                w: Width::W64,
                dst: Gpr::Rsi.into(),
            },
            Inst::Jcc {
                cond: Cond::Ne,
                target: addrs[3],
            },
            Inst::Ret,
        ];
        let mut bytes = Vec::new();
        let mut addr = f;
        for i in &body {
            encode(i, addr, &mut bytes).unwrap();
            addr = f + bytes.len() as u64;
        }
        img.write_bytes(f, &bytes).unwrap();

        // Data: 5 numbers on the heap.
        let p = img.alloc_heap(5 * 8, 8);
        for (i, v) in [1i64, 2, 3, 4, 5].iter().enumerate() {
            img.write_u64(p + 8 * i as u64, *v as u64).unwrap();
        }
        let mut m = Machine::new();
        let out = m.call(&img, f, &CallArgs::new().ptr(p).int(5)).unwrap();
        assert_eq!(out.ret_int as i64, 15);
        assert_eq!(out.stats.branches, 6); // 1 entry test + 5 loop back-edges
        assert_eq!(out.stats.loads, 5);
    }

    #[test]
    fn call_and_ret_nest() {
        // callee: mov rax, 7; ret     caller: call callee; add rax, 1; ret
        let base = brew_image::layout::CODE_BASE;
        let callee = [
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(7),
            },
            Inst::Ret,
        ];
        let mut bytes = Vec::new();
        let mut addr = base;
        for i in &callee {
            encode(i, addr, &mut bytes).unwrap();
            addr = base + bytes.len() as u64;
        }
        let callee_len = bytes.len() as u64;
        let caller_at = base + callee_len;
        let caller = [
            Inst::CallRel { target: base },
            Inst::Alu {
                op: AluOp::Add,
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(1),
            },
            Inst::Ret,
        ];
        for i in &caller {
            encode(i, base + bytes.len() as u64, &mut bytes).unwrap();
        }
        let img = Image::new();
        img.alloc_code(&bytes);
        let mut m = Machine::new();
        let out = m.call(&img, caller_at, &CallArgs::new()).unwrap();
        assert_eq!(out.ret_int, 8);
        assert_eq!(out.stats.calls, 1);
        assert_eq!(out.stats.rets, 2);
    }

    #[test]
    fn divide_fault() {
        let (img, f) = asm(&[
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(1),
            },
            Inst::Cqo { w: Width::W64 },
            Inst::Idiv {
                w: Width::W64,
                src: Gpr::Rcx.into(),
            }, // rcx = 0
            Inst::Ret,
        ]);
        let mut m = Machine::new();
        let err = m.call(&img, f, &CallArgs::new()).unwrap_err();
        assert!(matches!(err, EmuError::Divide { .. }));
    }

    #[test]
    fn ud2_traps() {
        let (img, f) = asm(&[Inst::Ud2]);
        let mut m = Machine::new();
        assert!(matches!(
            m.call(&img, f, &CallArgs::new()),
            Err(EmuError::Trap { .. })
        ));
    }

    #[test]
    fn fuel_exhaustion() {
        // jmp self
        let base = brew_image::layout::CODE_BASE;
        let mut bytes = Vec::new();
        encode(&Inst::JmpRel { target: base }, base, &mut bytes).unwrap();
        let img = Image::new();
        img.alloc_code(&bytes);
        let mut m = Machine::new();
        m.fuel = 1000;
        assert!(matches!(
            m.call(&img, base, &CallArgs::new()),
            Err(EmuError::OutOfFuel)
        ));
    }

    #[test]
    fn observer_sees_calls() {
        let base = brew_image::layout::CODE_BASE;
        let callee = base; // mov rax,1; ret
        let mut bytes = Vec::new();
        let mut a = base;
        for i in [
            Inst::Mov {
                w: Width::W64,
                dst: Gpr::Rax.into(),
                src: Operand::Imm(1),
            },
            Inst::Ret,
        ] {
            encode(&i, a, &mut bytes).unwrap();
            a = base + bytes.len() as u64;
        }
        let caller = base + bytes.len() as u64;
        for i in [Inst::CallRel { target: callee }, Inst::Ret] {
            encode(&i, base + bytes.len() as u64, &mut bytes).unwrap();
        }
        let img = Image::new();
        img.alloc_code(&bytes);

        let mut seen: Vec<(u64, u64)> = Vec::new();
        {
            let mut m = Machine::new();
            m.set_call_observer(Box::new(|site, target, _| seen.push((site, target))));
            m.call(&img, caller, &CallArgs::new()).unwrap();
        }
        assert_eq!(seen, vec![(caller, callee)]);
    }
}
