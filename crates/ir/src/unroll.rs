//! Bounded loop unrolling with symbolic register execution.
//!
//! Each thread is expanded into a *tree* of guarded basic blocks: a
//! conditional branch whose outcome is not statically known splits the
//! block into two children. Because paths never re-join, register
//! data-flow needs no phi nodes — every block sees a unique register
//! valuation, and loads are resolved to [`Val::Read`] of the concrete
//! event id generated on that path.
//!
//! Back-edges consume *fuel*: each backward jump instruction may be taken
//! at most `bound - 1` times on one path. When the fuel runs out the path
//! terminates with [`UTerm::Bound`]; if the exhausted loop was a
//! *spinloop* (its body contains no store, RMW, fence, or control
//! barrier — the side-effect-free loops of §6.4, as decided by
//! [`Instruction::has_side_effect`]) the terminator records the loop's
//! final load so the liveness checker can test co-maximal stuckness.

use std::collections::HashMap;

use crate::event::{AddrVal, Event, EventId, EventKind, Guard, Tag, TagSet, Val};
use crate::instr::{
    AccessAttrs, FenceAttrs, Instruction, MemOrder, MemRef, Operand, Proxy, ProxyFence, Reg,
};
use crate::mem::LocId;
use crate::program::{IrError, Program};
use crate::Arch;
use crate::Scope;

/// Identifier of a guarded basic block. Block 0 is the always-executed
/// block containing the init events.
pub type BlockId = u32;

/// Liveness information for an exhausted spinloop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpinInfo {
    /// The load of the final unrolled iteration that feeds the loop
    /// condition. Liveness asks whether it reads a co-maximal write.
    pub read: EventId,
}

/// Block terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UTerm {
    /// The thread finished; `final_regs` snapshots its registers.
    End {
        /// Register valuation at thread exit (sorted by register).
        final_regs: Vec<(Reg, Val)>,
    },
    /// A data-dependent conditional branch.
    Branch {
        /// Branch condition.
        guard: Guard,
        /// Block taken when the guard holds.
        then_blk: BlockId,
        /// Block taken otherwise.
        else_blk: BlockId,
    },
    /// The unrolling bound was reached; the path is incomplete. When
    /// `spin` is set the exhausted loop was side-effect-free and the path
    /// represents a potentially *stuck* thread.
    Bound {
        /// Spinloop instrumentation, when applicable.
        spin: Option<SpinInfo>,
    },
}

/// A guarded basic block of the unrolled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UBlock {
    /// Owning thread (`None` only for the init block).
    pub thread: Option<usize>,
    /// Parent block, with the branch polarity that leads here: the block
    /// executes iff the parent executes and its branch guard evaluates to
    /// the recorded boolean.
    pub parent: Option<(BlockId, bool)>,
    /// Events generated in this block, in program order.
    pub events: Vec<Event>,
    /// Terminator.
    pub term: UTerm,
}

/// An unrolled thread: the root of its block tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrolledThread {
    /// Root block (always executed when the thread runs).
    pub root: BlockId,
}

/// A fully unrolled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrolledProgram {
    /// The source program (memory declarations, assertion, metadata).
    pub program: Program,
    /// Global block arena; index 0 is the init block.
    pub blocks: Vec<UBlock>,
    /// Per-thread roots, indexed like `program.threads`.
    pub threads: Vec<UnrolledThread>,
    /// Number of init events (event ids `0..n_init`).
    pub n_init: u32,
}

/// Upper bound on blocks produced by unrolling, guarding against path
/// explosion in adversarial inputs.
const MAX_BLOCKS: usize = 200_000;

/// Unrolls a program with the given loop bound.
///
/// `bound` is the maximal number of times any loop body may execute on a
/// path; it must be at least 1.
///
/// # Errors
///
/// Returns an error when the program is ill-formed ([`Program::validate`])
/// or unrolling exceeds the internal block limit.
///
/// # Panics
///
/// Panics if `bound == 0`.
pub fn unroll(p: &Program, bound: u32) -> Result<UnrolledProgram, IrError> {
    assert!(bound >= 1, "unrolling bound must be at least 1");
    p.validate()?;
    let mut ctx = Unroller {
        program: p,
        bound,
        blocks: Vec::new(),
        next_event: 0,
    };
    // Block 0: init events.
    let mut init_events = Vec::new();
    for (li, decl) in p.memory.iter().enumerate() {
        if decl.alias_of.is_some() {
            continue; // aliases share the root's storage
        }
        for idx in 0..decl.size {
            let id = ctx.fresh_event();
            init_events.push(Event {
                id,
                thread: None,
                kind: EventKind::Init {
                    loc: LocId(li as u32),
                    index: idx,
                    value: decl.init_value(idx),
                },
                tags: TagSet::new().with(Tag::W).with(Tag::IW),
                block: 0,
                po_index: id.index(),
                label: format!("init:{}[{idx}]", decl.name),
            });
        }
    }
    let n_init = init_events.len() as u32;
    ctx.blocks.push(UBlock {
        thread: None,
        parent: None,
        events: init_events,
        term: UTerm::End {
            final_regs: Vec::new(),
        },
    });

    let mut threads = Vec::new();
    for ti in 0..p.threads.len() {
        let root = ctx.unroll_thread(ti)?;
        threads.push(UnrolledThread { root });
    }
    Ok(UnrolledProgram {
        program: p.clone(),
        blocks: ctx.blocks,
        threads,
        n_init,
    })
}

struct Unroller<'a> {
    program: &'a Program,
    bound: u32,
    blocks: Vec<UBlock>,
    next_event: u32,
}

/// Mutable per-path state during expansion.
#[derive(Clone)]
struct PathState {
    pc: usize,
    regs: HashMap<Reg, Val>,
    /// Remaining back-edge budget per jump-instruction pc.
    fuel: HashMap<usize, u32>,
    po_index: usize,
    /// Most recent load generated on this path: (pc, event id).
    last_load: Option<(usize, EventId)>,
}

impl<'a> Unroller<'a> {
    fn fresh_event(&mut self) -> EventId {
        let id = EventId(self.next_event);
        self.next_event += 1;
        id
    }

    fn fresh_block(
        &mut self,
        thread: usize,
        parent: Option<(BlockId, bool)>,
    ) -> Result<BlockId, IrError> {
        if self.blocks.len() >= MAX_BLOCKS {
            return Err(IrError {
                message: format!(
                    "unrolling exceeded {MAX_BLOCKS} blocks; reduce the bound or simplify loops"
                ),
            });
        }
        let id = self.blocks.len() as BlockId;
        self.blocks.push(UBlock {
            thread: Some(thread),
            parent,
            events: Vec::new(),
            term: UTerm::End {
                final_regs: Vec::new(),
            },
        });
        Ok(id)
    }

    fn unroll_thread(&mut self, ti: usize) -> Result<BlockId, IrError> {
        let root = self.fresh_block(ti, None)?;
        let state = PathState {
            pc: 0,
            regs: HashMap::new(),
            fuel: HashMap::new(),
            po_index: 0,
            last_load: None,
        };
        self.expand(ti, root, state)?;
        Ok(root)
    }

    fn label_pc(&self, ti: usize, label: u32) -> usize {
        self.program.threads[ti]
            .instructions
            .iter()
            .position(|i| matches!(i, Instruction::Label(l) if *l == label))
            .expect("validated label")
    }

    fn operand_val(regs: &HashMap<Reg, Val>, op: Operand) -> Val {
        match op {
            Operand::Const(c) => Val::Const(c),
            Operand::Reg(r) => regs.get(&r).cloned().unwrap_or(Val::Const(0)),
        }
    }

    fn addr_val(regs: &HashMap<Reg, Val>, m: MemRef) -> AddrVal {
        AddrVal {
            loc: m.loc,
            index: Self::operand_val(regs, m.index),
        }
    }

    /// Expands instructions into `block` starting at `state.pc`.
    fn expand(&mut self, ti: usize, block: BlockId, mut state: PathState) -> Result<(), IrError> {
        let n = self.program.threads[ti].instructions.len();
        let arch = self.program.arch;
        loop {
            if state.pc >= n {
                let mut final_regs: Vec<(Reg, Val)> = state.regs.into_iter().collect();
                final_regs.sort_by_key(|(r, _)| *r);
                self.blocks[block as usize].term = UTerm::End { final_regs };
                return Ok(());
            }
            let instr = self.program.threads[ti].instructions[state.pc].clone();
            let label = format!("{}:{}", self.program.threads[ti].name, state.pc + 1);
            match instr {
                Instruction::Label(_) => state.pc += 1,
                Instruction::Alu { dst, op, a, b } => {
                    let va = Self::operand_val(&state.regs, a);
                    let vb = Self::operand_val(&state.regs, b);
                    state.regs.insert(dst, Val::bin(op, va, vb));
                    state.pc += 1;
                }
                Instruction::Load { dst, addr, attrs } => {
                    let id = self.fresh_event();
                    let av = Self::addr_val(&state.regs, addr);
                    let tags = access_tags(arch, &attrs, false, self.program, addr.loc);
                    self.push_event(
                        block,
                        Event {
                            id,
                            thread: Some(ti),
                            kind: EventKind::Load { reg: dst, addr: av },
                            tags,
                            block,
                            po_index: state.po_index,
                            label,
                        },
                    );
                    state.po_index += 1;
                    state.regs.insert(dst, Val::Read(id));
                    state.last_load = Some((state.pc, id));
                    state.pc += 1;
                }
                Instruction::Store { addr, src, attrs } => {
                    let id = self.fresh_event();
                    let av = Self::addr_val(&state.regs, addr);
                    let value = Self::operand_val(&state.regs, src);
                    let tags = access_tags(arch, &attrs, true, self.program, addr.loc);
                    self.push_event(
                        block,
                        Event {
                            id,
                            thread: Some(ti),
                            kind: EventKind::Store { addr: av, value },
                            tags,
                            block,
                            po_index: state.po_index,
                            label,
                        },
                    );
                    state.po_index += 1;
                    state.pc += 1;
                }
                Instruction::Rmw {
                    dst,
                    addr,
                    op,
                    operand,
                    attrs,
                } => {
                    let rid = self.fresh_event();
                    let wid = self.fresh_event();
                    let av = Self::addr_val(&state.regs, addr);
                    let opval = Self::operand_val(&state.regs, operand);
                    let mut rtags = access_tags(arch, &attrs, false, self.program, addr.loc);
                    rtags.insert(Tag::RMW);
                    let mut wtags = access_tags(arch, &attrs, true, self.program, addr.loc);
                    wtags.insert(Tag::RMW);
                    // Split acquire/release across the pair: the read half
                    // carries acquire, the write half release semantics.
                    let (value, cas_expected) = match op {
                        crate::instr::RmwOp::Add => (
                            Val::bin(crate::instr::AluOp::Add, Val::Read(rid), opval),
                            None,
                        ),
                        crate::instr::RmwOp::Exchange => (opval, None),
                        crate::instr::RmwOp::Cas { expected } => {
                            (opval, Some(Self::operand_val(&state.regs, expected)))
                        }
                    };
                    self.push_event(
                        block,
                        Event {
                            id: rid,
                            thread: Some(ti),
                            kind: EventKind::RmwLoad {
                                reg: dst,
                                addr: av.clone(),
                            },
                            tags: rtags,
                            block,
                            po_index: state.po_index,
                            label: label.clone(),
                        },
                    );
                    state.po_index += 1;
                    self.push_event(
                        block,
                        Event {
                            id: wid,
                            thread: Some(ti),
                            kind: EventKind::RmwStore {
                                addr: av,
                                value,
                                read: rid,
                                cas_expected,
                            },
                            tags: wtags,
                            block,
                            po_index: state.po_index,
                            label,
                        },
                    );
                    state.po_index += 1;
                    state.regs.insert(dst, Val::Read(rid));
                    state.pc += 1;
                }
                Instruction::Fence { attrs } => {
                    let id = self.fresh_event();
                    let tags = fence_tags(arch, &attrs);
                    self.push_event(
                        block,
                        Event {
                            id,
                            thread: Some(ti),
                            kind: EventKind::Fence(attrs),
                            tags,
                            block,
                            po_index: state.po_index,
                            label,
                        },
                    );
                    state.po_index += 1;
                    state.pc += 1;
                }
                Instruction::Barrier { attrs } => {
                    let id = self.fresh_event();
                    let idval = Self::operand_val(&state.regs, attrs.id);
                    let mut tags = TagSet::new().with(Tag::B);
                    tags.insert(scope_tag(attrs.scope));
                    if let Some(f) = &attrs.fence {
                        // A barrier with memory semantics acts as a fence
                        // too (the Vulkan model's `[REL & F]; po?; [CBAR]`
                        // synchronizes-with clause matches the barrier
                        // itself through the reflexive `po?`).
                        tags.insert(Tag::F);
                        if f.order.includes_acquire() {
                            tags.insert(Tag::ACQ);
                        }
                        if f.order.includes_release() {
                            tags.insert(Tag::REL);
                        }
                        for t in implied_sem_tags(f) {
                            tags.insert(t);
                        }
                        if f.scope.arch() == arch {
                            tags.insert(scope_tag(f.scope));
                        }
                    }
                    self.push_event(
                        block,
                        Event {
                            id,
                            thread: Some(ti),
                            kind: EventKind::Barrier { id: idval, attrs },
                            tags,
                            block,
                            po_index: state.po_index,
                            label,
                        },
                    );
                    state.po_index += 1;
                    state.pc += 1;
                }
                Instruction::Goto(l) => {
                    let target = self.label_pc(ti, l);
                    if target <= state.pc {
                        // Back-edge: consume fuel.
                        let fuel = state.fuel.entry(state.pc).or_insert(self.bound - 1);
                        if *fuel == 0 {
                            let spin = self.spin_info(ti, target, state.pc, &state);
                            self.blocks[block as usize].term = UTerm::Bound { spin };
                            return Ok(());
                        }
                        *fuel -= 1;
                    }
                    state.pc = target;
                }
                Instruction::Branch { cmp, a, b, target } => {
                    let va = Self::operand_val(&state.regs, a);
                    let vb = Self::operand_val(&state.regs, b);
                    let target_pc = self.label_pc(ti, target);
                    let guard = Guard {
                        cmp,
                        a: va.clone(),
                        b: vb.clone(),
                    };
                    if let (Some(ca), Some(cb)) = (va.as_const(), vb.as_const()) {
                        // Statically decided branch: no split.
                        let taken = guard.eval(ca, cb);
                        if taken {
                            if target_pc <= state.pc {
                                let fuel = state.fuel.entry(state.pc).or_insert(self.bound - 1);
                                if *fuel == 0 {
                                    let spin = self.spin_info(ti, target_pc, state.pc, &state);
                                    self.blocks[block as usize].term = UTerm::Bound { spin };
                                    return Ok(());
                                }
                                *fuel -= 1;
                            }
                            state.pc = target_pc;
                        } else {
                            state.pc += 1;
                        }
                        continue;
                    }
                    // Data-dependent branch: split into two child blocks.
                    let then_blk = self.fresh_block(ti, Some((block, true)))?;
                    let else_blk = self.fresh_block(ti, Some((block, false)))?;
                    self.blocks[block as usize].term = UTerm::Branch {
                        guard,
                        then_blk,
                        else_blk,
                    };
                    // Then side: jump to target (may be a back-edge).
                    let mut then_state = state.clone();
                    if target_pc <= state.pc {
                        let fuel = then_state.fuel.entry(state.pc).or_insert(self.bound - 1);
                        if *fuel == 0 {
                            let spin = self.spin_info(ti, target_pc, state.pc, &then_state);
                            self.blocks[then_blk as usize].term = UTerm::Bound { spin };
                            // Else side continues past the branch.
                            let mut else_state = state;
                            else_state.pc += 1;
                            return self.expand(ti, else_blk, else_state);
                        }
                        *fuel -= 1;
                    }
                    then_state.pc = target_pc;
                    self.expand(ti, then_blk, then_state)?;
                    let mut else_state = state;
                    else_state.pc += 1;
                    return self.expand(ti, else_blk, else_state);
                }
            }
        }
    }

    fn push_event(&mut self, block: BlockId, e: Event) {
        self.blocks[block as usize].events.push(e);
    }

    /// Builds spin information for an exhausted loop `[body_start, jump_pc]`.
    fn spin_info(
        &self,
        ti: usize,
        body_start: usize,
        jump_pc: usize,
        state: &PathState,
    ) -> Option<SpinInfo> {
        let body = &self.program.threads[ti].instructions[body_start..=jump_pc];
        if body.iter().any(Instruction::has_side_effect) {
            return None;
        }
        match state.last_load {
            Some((pc, id)) if pc >= body_start && pc <= jump_pc => Some(SpinInfo { read: id }),
            _ => None,
        }
    }
}

fn scope_tag(s: Scope) -> Tag {
    match s {
        Scope::Cta => Tag::CTA,
        Scope::Gpu => Tag::GPU,
        Scope::Sys => Tag::SYS,
        Scope::Sg => Tag::SG,
        Scope::Wg => Tag::WG,
        Scope::Qf => Tag::QF,
        Scope::Dv => Tag::DV,
    }
}

fn order_tags(order: MemOrder, tags: &mut TagSet) {
    if order.is_atomic() {
        tags.insert(Tag::A);
    }
    match order {
        MemOrder::Weak => {}
        MemOrder::Relaxed => {
            tags.insert(Tag::RLX);
        }
        MemOrder::Acquire => {
            tags.insert(Tag::ACQ);
        }
        MemOrder::Release => {
            tags.insert(Tag::REL);
        }
        MemOrder::AcqRel => {
            tags.insert(Tag::ACQ);
            tags.insert(Tag::REL);
        }
        MemOrder::Sc => {
            tags.insert(Tag::SC);
            tags.insert(Tag::ACQ);
            tags.insert(Tag::REL);
        }
    }
}

fn proxy_tag(p: Proxy) -> Tag {
    match p {
        Proxy::Generic => Tag::GEN,
        Proxy::Texture => Tag::TEX,
        Proxy::Surface => Tag::SUR,
        Proxy::Constant => Tag::CON,
    }
}

/// Semantics tags of a fence, including the implicit availability /
/// visibility operations of the Vulkan model: a release operation with
/// storage-class semantics performs an availability operation on those
/// storage classes, and an acquire operation a visibility operation
/// (Vulkan spec §memory-model; explicit `SEMAV`/`SEMVIS` flags add to
/// this, they are only *required* for indirect chains like Figure 9).
fn implied_sem_tags(f: &FenceAttrs) -> Vec<Tag> {
    let mut out = Vec::new();
    if f.sem_sc & 0b01 != 0 {
        out.push(Tag::SEMSC0);
    }
    if f.sem_sc & 0b10 != 0 {
        out.push(Tag::SEMSC1);
    }
    if f.sem_av || (f.sem_sc != 0 && f.order.includes_release()) {
        out.push(Tag::SEMAV);
    }
    if f.sem_vis || (f.sem_sc != 0 && f.order.includes_acquire()) {
        out.push(Tag::SEMVIS);
    }
    if f.av_device {
        out.push(Tag::AVDEVICE);
    }
    if f.vis_device {
        out.push(Tag::VISDEVICE);
    }
    out
}

/// Computes the tag set of a memory access event.
fn access_tags(
    arch: Arch,
    attrs: &AccessAttrs,
    is_write: bool,
    program: &Program,
    loc: LocId,
) -> TagSet {
    let mut tags = TagSet::new();
    tags.insert(if is_write { Tag::W } else { Tag::R });
    // For RMW halves, the caller splits acquire to the read and release to
    // the write; here an acquire-release access simply tags both.
    let effective = match (attrs.order, is_write) {
        (MemOrder::Acquire, true) => MemOrder::Relaxed,
        (MemOrder::Release, false) => MemOrder::Relaxed,
        (MemOrder::AcqRel, true) => MemOrder::Release,
        (MemOrder::AcqRel, false) => MemOrder::Acquire,
        (o, _) => o,
    };
    order_tags(effective, &mut tags);
    tags.insert(scope_tag(attrs.scope));
    let decl = &program.memory[loc.index()];
    match arch {
        Arch::Ptx => {
            tags.insert(proxy_tag(decl.proxy));
        }
        Arch::Vulkan => {
            tags.insert(if decl.storage_class == 0 {
                Tag::SC0
            } else {
                Tag::SC1
            });
            // Atomic operations carry (at least) their own storage class
            // in their memory semantics, as compiled SPIR-V atomics do;
            // release (acquire) semantics imply an availability
            // (visibility) operation on those classes (Vulkan spec).
            let mut sem_sc = attrs.sem_sc;
            if attrs.order.is_atomic() {
                sem_sc |= if decl.storage_class == 0 { 0b01 } else { 0b10 };
            }
            if sem_sc & 0b01 != 0 {
                tags.insert(Tag::SEMSC0);
            }
            if sem_sc & 0b10 != 0 {
                tags.insert(Tag::SEMSC1);
            }
            if sem_sc != 0 && attrs.order.includes_release() && is_write {
                tags.insert(Tag::SEMAV);
            }
            if sem_sc != 0 && attrs.order.includes_acquire() && !is_write {
                tags.insert(Tag::SEMVIS);
            }
            if attrs.avail {
                tags.insert(Tag::AV);
            }
            if attrs.visible {
                tags.insert(Tag::VIS);
            }
            if attrs.sem_av {
                tags.insert(Tag::SEMAV);
            }
            if attrs.sem_vis {
                tags.insert(Tag::SEMVIS);
            }
            if attrs.nonpriv || attrs.order.is_atomic() {
                tags.insert(Tag::NONPRIV);
            }
        }
    }
    tags
}

/// Computes the tag set of a fence event.
fn fence_tags(arch: Arch, attrs: &FenceAttrs) -> TagSet {
    let mut tags = TagSet::new().with(Tag::F);
    order_tags(attrs.order, &mut tags);
    // `A` marks atomic *accesses*; fences are strong via `F` already.
    tags.remove(Tag::A);
    tags.insert(scope_tag(attrs.scope));
    if arch == Arch::Ptx {
        match attrs.proxy_fence {
            Some(ProxyFence::Alias) => {
                tags.insert(Tag::ALIAS);
                tags.insert(Tag::GEN);
            }
            Some(ProxyFence::Texture) => {
                tags.insert(Tag::TEX);
                tags.insert(Tag::GEN);
            }
            Some(ProxyFence::Surface) => {
                tags.insert(Tag::SUR);
                tags.insert(Tag::GEN);
            }
            Some(ProxyFence::Constant) => {
                tags.insert(Tag::CON);
                tags.insert(Tag::GEN);
            }
            None => {
                tags.insert(proxy_tag(attrs.proxy));
            }
        }
    }
    for t in implied_sem_tags(attrs) {
        tags.insert(t);
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::CmpOp;
    use crate::mem::MemoryDecl;
    use crate::program::Thread;
    use crate::ThreadPos;

    fn simple_program() -> (Program, LocId) {
        let mut p = Program::new(Arch::Ptx);
        let x = p.declare_memory(MemoryDecl::scalar("x"));
        (p, x)
    }

    #[test]
    fn straight_line_single_block() {
        let (mut p, x) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::store(
            MemRef::scalar(x),
            Operand::Const(1),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::load(
            Reg(0),
            MemRef::scalar(x),
            AccessAttrs::weak(),
        ));
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        assert_eq!(u.n_init, 1);
        assert_eq!(u.blocks.len(), 2); // init + one thread block
        assert_eq!(u.blocks[1].events.len(), 2);
        match &u.blocks[1].term {
            UTerm::End { final_regs } => {
                assert_eq!(final_regs.len(), 1);
                assert!(matches!(final_regs[0].1, Val::Read(_)));
            }
            other => panic!("unexpected terminator {other:?}"),
        }
    }

    #[test]
    fn goto_loop_exhausts_fuel_and_detects_spin() {
        // LC0: ld r0, x; bne r0, 1, LC0  -- spins until x == 1.
        let (mut p, x) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::Label(0));
        t.push(Instruction::load(
            Reg(0),
            MemRef::scalar(x),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::Branch {
            cmp: CmpOp::Ne,
            a: Operand::Reg(Reg(0)),
            b: Operand::Const(1),
            target: 0,
        });
        p.add_thread(t);
        let u = unroll(&p, 3).unwrap();
        // The loop body executes up to 3 times; the innermost then-branch
        // ends with a spin Bound terminator.
        let bounds: Vec<&UTerm> = u
            .blocks
            .iter()
            .map(|b| &b.term)
            .filter(|t| matches!(t, UTerm::Bound { .. }))
            .collect();
        assert_eq!(bounds.len(), 1);
        match bounds[0] {
            UTerm::Bound { spin: Some(info) } => {
                // The final iteration's load must be the last load event.
                let loads: Vec<EventId> = u
                    .blocks
                    .iter()
                    .flat_map(|b| &b.events)
                    .filter(|e| matches!(e.kind, EventKind::Load { .. }))
                    .map(|e| e.id)
                    .collect();
                assert_eq!(loads.len(), 3);
                assert_eq!(info.read, *loads.last().unwrap());
            }
            other => panic!("expected spin bound, got {other:?}"),
        }
    }

    #[test]
    fn loop_with_store_is_not_a_spinloop() {
        let (mut p, x) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::Label(0));
        t.push(Instruction::load(
            Reg(0),
            MemRef::scalar(x),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::store(
            MemRef::scalar(x),
            Operand::Const(2),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::Branch {
            cmp: CmpOp::Ne,
            a: Operand::Reg(Reg(0)),
            b: Operand::Const(1),
            target: 0,
        });
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        for b in &u.blocks {
            if let UTerm::Bound { spin } = &b.term {
                assert!(spin.is_none(), "store in body must not be a spinloop");
            }
        }
    }

    #[test]
    fn static_goto_loop_terminates_at_bound() {
        // An unconditional self-loop: fuel must stop it.
        let (mut p, _) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::Label(0));
        t.push(Instruction::Goto(0));
        p.add_thread(t);
        let u = unroll(&p, 4).unwrap();
        assert!(u
            .blocks
            .iter()
            .any(|b| matches!(b.term, UTerm::Bound { .. })));
    }

    #[test]
    fn branch_splits_blocks_with_correct_parents() {
        let (mut p, x) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::load(
            Reg(0),
            MemRef::scalar(x),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::Branch {
            cmp: CmpOp::Eq,
            a: Operand::Reg(Reg(0)),
            b: Operand::Const(0),
            target: 0,
        });
        t.push(Instruction::store(
            MemRef::scalar(x),
            Operand::Const(1),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::Label(0));
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        let branch_blocks: Vec<(BlockId, BlockId)> = u
            .blocks
            .iter()
            .filter_map(|b| match b.term {
                UTerm::Branch {
                    then_blk, else_blk, ..
                } => Some((then_blk, else_blk)),
                _ => None,
            })
            .collect();
        assert_eq!(branch_blocks.len(), 1);
        let (tb, eb) = branch_blocks[0];
        assert_eq!(u.blocks[tb as usize].parent.map(|(_, pol)| pol), Some(true));
        assert_eq!(
            u.blocks[eb as usize].parent.map(|(_, pol)| pol),
            Some(false)
        );
        // Only the else branch stores.
        assert_eq!(u.blocks[tb as usize].events.len(), 0);
        assert_eq!(u.blocks[eb as usize].events.len(), 1);
    }

    #[test]
    fn rmw_generates_read_write_pair() {
        let (mut p, x) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::Rmw {
            dst: Reg(1),
            addr: MemRef::scalar(x),
            op: crate::instr::RmwOp::Add,
            operand: Operand::Const(1),
            attrs: AccessAttrs::atomic(MemOrder::AcqRel, Scope::Gpu),
        });
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        let evs = &u.blocks[1].events;
        assert_eq!(evs.len(), 2);
        assert!(evs[0].tags.contains(Tag::R) && evs[0].tags.contains(Tag::RMW));
        assert!(evs[0].tags.contains(Tag::ACQ) && !evs[0].tags.contains(Tag::REL));
        assert!(evs[1].tags.contains(Tag::W) && evs[1].tags.contains(Tag::RMW));
        assert!(evs[1].tags.contains(Tag::REL) && !evs[1].tags.contains(Tag::ACQ));
        match &evs[1].kind {
            EventKind::RmwStore { read, value, .. } => {
                assert_eq!(*read, evs[0].id);
                assert!(matches!(value, Val::Bin(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vulkan_storage_class_tags() {
        let mut p = Program::new(Arch::Vulkan);
        let x = p.declare_memory(MemoryDecl::scalar("x").with_storage_class(1));
        let mut t = Thread::new("P0", ThreadPos::vulkan(0, 0, 0));
        t.push(Instruction::store(
            MemRef::scalar(x),
            Operand::Const(1),
            AccessAttrs::atomic(MemOrder::Release, Scope::Dv).with_sem_sc(0b01),
        ));
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        let e = &u.blocks[1].events[0];
        assert!(e.tags.contains(Tag::SC1));
        assert!(e.tags.contains(Tag::SEMSC0));
        assert!(e.tags.contains(Tag::DV));
        assert!(e.tags.contains(Tag::NONPRIV));
    }

    #[test]
    fn alias_declarations_share_init_events() {
        let mut p = Program::new(Arch::Ptx);
        let x = p.declare_memory(MemoryDecl::scalar("x"));
        let _s = p.declare_memory(MemoryDecl::scalar("s").with_alias(x, Proxy::Surface));
        p.add_thread(Thread::new("P0", ThreadPos::ptx(0, 0)));
        let u = unroll(&p, 2).unwrap();
        assert_eq!(u.n_init, 1);
    }

    #[test]
    fn deterministic_branch_does_not_split() {
        let (mut p, x) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::Branch {
            cmp: CmpOp::Eq,
            a: Operand::Const(1),
            b: Operand::Const(1),
            target: 0,
        });
        t.push(Instruction::store(
            MemRef::scalar(x),
            Operand::Const(9),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::Label(0));
        t.push(Instruction::load(
            Reg(0),
            MemRef::scalar(x),
            AccessAttrs::weak(),
        ));
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        assert_eq!(u.blocks.len(), 2);
        // The store is skipped by the taken branch.
        assert_eq!(u.blocks[1].events.len(), 1);
    }

    #[test]
    fn fence_sc_tags() {
        let (mut p, _) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::fence(FenceAttrs::new(
            MemOrder::Sc,
            Scope::Gpu,
        )));
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        let e = &u.blocks[1].events[0];
        assert!(e.tags.contains(Tag::F));
        assert!(e.tags.contains(Tag::SC));
        assert!(e.tags.contains(Tag::GPU));
        assert!(e.tags.contains(Tag::GEN));
    }

    #[test]
    fn proxy_fence_tags() {
        let (mut p, _) = simple_program();
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::fence(FenceAttrs::proxy_fence(
            ProxyFence::Alias,
            Scope::Cta,
        )));
        p.add_thread(t);
        let u = unroll(&p, 2).unwrap();
        let e = &u.blocks[1].events[0];
        assert!(e.tags.contains(Tag::ALIAS));
        assert!(e.tags.contains(Tag::F));
    }
}
