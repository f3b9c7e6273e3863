//! Flattening unrolled programs into event graphs.

use crate::arch::{Arch, ThreadPos};
use crate::event::{Event, EventId, Guard, Val};
use crate::mem::{LocId, MemoryDecl};
use crate::program::{Assertion, Condition};
use crate::unroll::{BlockId, UTerm, UnrolledProgram};

/// Metadata of one compiled thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledThread {
    /// Display name.
    pub name: String,
    /// Position in the scope hierarchy.
    pub pos: ThreadPos,
    /// Root block of the thread's block tree.
    pub root: BlockId,
}

/// Metadata of one guarded block inside an [`EventGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// Owning thread (`None` for the init block).
    pub thread: Option<usize>,
    /// Parent block and the branch polarity leading here.
    pub parent: Option<(BlockId, bool)>,
    /// Terminator.
    pub term: UTerm,
    /// Events of the block, in program order.
    pub events: Vec<EventId>,
    /// Depth in the block tree (0 for roots).
    pub depth: u32,
}

/// The compiled form of a program: a flat list of events plus the guarded
/// block structure that controls which events execute together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventGraph {
    /// Target architecture.
    pub arch: Arch,
    /// Memory declarations (indexed by [`LocId`]).
    pub memory: Vec<MemoryDecl>,
    /// Test name.
    pub name: String,
    /// Final condition.
    pub assertion: Option<Assertion>,
    /// Behaviour filter.
    pub filter: Option<Condition>,
    /// Thread pairs related by `ssw`.
    pub ssw_pairs: Vec<(usize, usize)>,
    events: Vec<Event>,
    blocks: Vec<BlockMeta>,
    threads: Vec<CompiledThread>,
    n_init: u32,
}

/// Flattens an unrolled program into an [`EventGraph`].
pub fn compile(u: &UnrolledProgram) -> EventGraph {
    let mut events: Vec<Option<Event>> = Vec::new();
    let mut blocks: Vec<BlockMeta> = Vec::with_capacity(u.blocks.len());
    for b in &u.blocks {
        let ids: Vec<EventId> = b.events.iter().map(|e| e.id).collect();
        for e in &b.events {
            let idx = e.id.index();
            if events.len() <= idx {
                events.resize(idx + 1, None);
            }
            events[idx] = Some(e.clone());
        }
        blocks.push(BlockMeta {
            thread: b.thread,
            parent: b.parent,
            term: b.term.clone(),
            events: ids,
            depth: 0,
        });
    }
    // Depths (parents always precede children in the arena).
    for i in 0..blocks.len() {
        if let Some((p, _)) = blocks[i].parent {
            blocks[i].depth = blocks[p as usize].depth + 1;
        }
    }
    let events: Vec<Event> = events
        .into_iter()
        .map(|e| e.expect("dense event ids"))
        .collect();
    let threads = u
        .program
        .threads
        .iter()
        .zip(&u.threads)
        .map(|(t, ut)| CompiledThread {
            name: t.name.clone(),
            pos: t.pos.clone(),
            root: ut.root,
        })
        .collect();
    EventGraph {
        arch: u.program.arch,
        memory: u.program.memory.clone(),
        name: u.program.name.clone(),
        assertion: u.program.assertion.clone(),
        filter: u.program.filter.clone(),
        ssw_pairs: u.program.ssw_pairs.clone(),
        events,
        blocks,
        threads,
        n_init: u.n_init,
    }
}

impl EventGraph {
    /// All events, indexed by [`EventId`].
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// An event by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Number of events (including init events).
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// Number of init events (their ids are `0..n_init`).
    pub fn n_init(&self) -> u32 {
        self.n_init
    }

    /// All blocks.
    pub fn blocks(&self) -> &[BlockMeta] {
        &self.blocks
    }

    /// A block by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn block(&self, id: BlockId) -> &BlockMeta {
        &self.blocks[id as usize]
    }

    /// Compiled threads.
    pub fn threads(&self) -> &[CompiledThread] {
        &self.threads
    }

    /// Whether `anc` is `blk` or an ancestor of `blk` in the block tree.
    pub fn is_ancestor(&self, anc: BlockId, blk: BlockId) -> bool {
        let mut cur = blk;
        loop {
            if cur == anc {
                return true;
            }
            match self.blocks[cur as usize].parent {
                Some((p, _)) => cur = p,
                None => return false,
            }
        }
    }

    /// Whether two blocks are mutually exclusive (no execution runs both).
    ///
    /// Blocks of different threads, or the init block paired with
    /// anything, are never mutually exclusive; blocks of the same thread
    /// are exclusive unless one is an ancestor of the other.
    pub fn mutually_exclusive(&self, a: BlockId, b: BlockId) -> bool {
        let (ba, bb) = (&self.blocks[a as usize], &self.blocks[b as usize]);
        match (ba.thread, bb.thread) {
            (Some(ta), Some(tb)) if ta == tb => !self.is_ancestor(a, b) && !self.is_ancestor(b, a),
            _ => false,
        }
    }

    /// Whether two events can execute in the same behaviour.
    pub fn can_coexist(&self, a: EventId, b: EventId) -> bool {
        !self.mutually_exclusive(self.event(a).block, self.event(b).block)
    }

    /// The chain of `(guard, polarity)` conditions controlling a block,
    /// from root to the block itself.
    pub fn guard_chain(&self, blk: BlockId) -> Vec<(Guard, bool)> {
        let mut chain = Vec::new();
        let mut cur = blk;
        while let Some((p, pol)) = self.blocks[cur as usize].parent {
            if let UTerm::Branch { guard, .. } = &self.blocks[p as usize].term {
                chain.push((guard.clone(), pol));
            }
            cur = p;
        }
        chain.reverse();
        chain
    }

    /// Event ids of a thread, in increasing program order.
    pub fn thread_events(&self, thread: usize) -> Vec<EventId> {
        let mut out: Vec<EventId> = self
            .events
            .iter()
            .filter(|e| e.thread == Some(thread))
            .map(|e| e.id)
            .collect();
        out.sort_by_key(|e| self.event(*e).po_index);
        out
    }

    /// Leaf blocks of a thread together with their terminators.
    pub fn thread_leaves(&self, thread: usize) -> Vec<(BlockId, &UTerm)> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.thread == Some(thread))
            .filter(|(_, b)| !matches!(b.term, UTerm::Branch { .. }))
            .map(|(i, b)| (i as BlockId, &b.term))
            .collect()
    }

    /// The *physical* root location of a declared name.
    pub fn physical_root(&self, loc: LocId) -> LocId {
        let mut cur = loc;
        while let Some(t) = self.memory[cur.index()].alias_of {
            cur = t;
        }
        cur
    }

    /// Static address of an event, when its index is a constant:
    /// `(virtual name, element)`.
    pub fn static_addr(&self, e: EventId) -> Option<(LocId, u64)> {
        match &self.event(e).kind {
            crate::event::EventKind::Init { loc, index, .. } => Some((*loc, u64::from(*index))),
            k => k
                .addr()
                .and_then(|a| a.index.as_const().map(|i| (a.loc, i))),
        }
    }

    /// The declared (virtual) location an event accesses, if it is a
    /// memory access.
    pub fn virtual_loc(&self, e: EventId) -> Option<LocId> {
        match &self.event(e).kind {
            crate::event::EventKind::Init { loc, .. } => Some(*loc),
            k => k.addr().map(|a| a.loc),
        }
    }

    /// May the two events access the same physical location?
    pub fn may_alias(&self, a: EventId, b: EventId) -> bool {
        let (Some(la), Some(lb)) = (self.virtual_loc(a), self.virtual_loc(b)) else {
            return false;
        };
        if self.physical_root(la) != self.physical_root(lb) {
            return false;
        }
        match (self.static_addr(a), self.static_addr(b)) {
            (Some((_, ia)), Some((_, ib))) => ia == ib,
            _ => true, // a dynamic index may equal anything in the array
        }
    }

    /// Must the two events access the same physical location?
    pub fn must_alias(&self, a: EventId, b: EventId) -> bool {
        let (Some(la), Some(lb)) = (self.virtual_loc(a), self.virtual_loc(b)) else {
            return false;
        };
        if self.physical_root(la) != self.physical_root(lb) {
            return false;
        }
        matches!(
            (self.static_addr(a), self.static_addr(b)),
            (Some((_, ia)), Some((_, ib))) if ia == ib
        )
    }

    /// Must the two events use the same *virtual* address (same declared
    /// name and same element)? This is the paper's `vloc` (Table 1).
    pub fn same_virtual(&self, a: EventId, b: EventId) -> bool {
        match (self.virtual_loc(a), self.virtual_loc(b)) {
            (Some(la), Some(lb)) if la == lb => matches!(
                (self.static_addr(a), self.static_addr(b)),
                (Some((_, ia)), Some((_, ib))) if ia == ib
            ),
            // Init events belong to every virtual address of their
            // physical storage: treat an init write as same-virtual with
            // any access to its location.
            (Some(la), Some(lb)) => {
                (self.event(a).tags.contains(crate::event::Tag::IW)
                    || self.event(b).tags.contains(crate::event::Tag::IW))
                    && self.physical_root(la) == self.physical_root(lb)
                    && self.may_alias(a, b)
            }
            _ => false,
        }
    }

    /// The symbolic value written by a write event.
    pub fn write_value(&self, e: EventId) -> Option<Val> {
        match &self.event(e).kind {
            crate::event::EventKind::Init { value, .. } => Some(Val::Const(*value)),
            crate::event::EventKind::Store { value, .. } => Some(value.clone()),
            crate::event::EventKind::RmwStore { value, .. } => Some(value.clone()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Tag;
    use crate::instr::{AccessAttrs, CmpOp, Instruction, MemRef, Operand, Proxy, Reg};
    use crate::mem::MemoryDecl;
    use crate::program::{Program, Thread};
    use crate::unroll::unroll;

    fn branchy_graph() -> EventGraph {
        let mut p = Program::new(Arch::Ptx);
        let x = p.declare_memory(MemoryDecl::scalar("x"));
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
        t.push(Instruction::store(
            MemRef::scalar(x),
            Operand::Const(2),
            AccessAttrs::weak(),
        ));
        p.add_thread(t);
        compile(&unroll(&p, 2).unwrap())
    }

    #[test]
    fn dense_event_ids_and_init() {
        let g = branchy_graph();
        assert_eq!(g.n_init(), 1);
        for (i, e) in g.events().iter().enumerate() {
            assert_eq!(e.id.index(), i);
        }
        assert!(g.event(crate::event::EventId(0)).tags.contains(Tag::IW));
    }

    #[test]
    fn mutual_exclusion_of_branch_arms() {
        let g = branchy_graph();
        // Find the store(1) (then-skipped / else branch) and store(2)s.
        let stores: Vec<_> = g
            .events()
            .iter()
            .filter(|e| matches!(&e.kind, crate::event::EventKind::Store { .. }))
            .collect();
        assert_eq!(stores.len(), 3); // store(1) on else, store(2) on both arms
        let blocks: Vec<_> = stores.iter().map(|e| e.block).collect();
        // The two store(2) copies live in sibling blocks.
        let mut excl = 0;
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                if g.mutually_exclusive(blocks[i], blocks[j]) {
                    excl += 1;
                }
            }
        }
        // store(1)@else vs store(2)@then, and store(2)@else vs
        // store(2)@then: two exclusive pairs across the sibling arms.
        assert_eq!(excl, 2);
    }

    #[test]
    fn guard_chain_polarity() {
        let g = branchy_graph();
        let leaf_blocks: Vec<_> = (0..g.blocks().len() as u32)
            .filter(|&b| g.block(b).thread == Some(0))
            .filter(|&b| !matches!(g.block(b).term, UTerm::Branch { .. }))
            .collect();
        assert_eq!(leaf_blocks.len(), 2);
        for b in leaf_blocks {
            let chain = g.guard_chain(b);
            assert_eq!(chain.len(), 1);
        }
    }

    #[test]
    fn alias_and_virtual_addresses() {
        let mut p = Program::new(Arch::Ptx);
        let x = p.declare_memory(MemoryDecl::scalar("x"));
        let s = p.declare_memory(MemoryDecl::scalar("s").with_alias(x, Proxy::Surface));
        let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
        t.push(Instruction::store(
            MemRef::scalar(x),
            Operand::Const(1),
            AccessAttrs::weak(),
        ));
        t.push(Instruction::store(
            MemRef::scalar(s),
            Operand::Const(2),
            AccessAttrs::weak(),
        ));
        p.add_thread(t);
        let g = compile(&unroll(&p, 2).unwrap());
        let ids: Vec<_> = g.thread_events(0);
        let (e1, e2) = (ids[0], ids[1]);
        assert!(g.may_alias(e1, e2));
        assert!(g.must_alias(e1, e2));
        assert!(
            !g.same_virtual(e1, e2),
            "x and s are distinct virtual addresses"
        );
        // Init event is same-virtual with both.
        let init = crate::event::EventId(0);
        assert!(g.same_virtual(init, e1));
        assert!(g.same_virtual(init, e2));
    }

    #[test]
    fn thread_events_in_po_order() {
        let g = branchy_graph();
        let evs = g.thread_events(0);
        let idxs: Vec<usize> = evs.iter().map(|&e| g.event(e).po_index).collect();
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        assert_eq!(idxs, sorted);
    }

    #[test]
    fn leaves_have_end_terminators() {
        let g = branchy_graph();
        let leaves = g.thread_leaves(0);
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().all(|(_, t)| matches!(t, UTerm::End { .. })));
    }

    #[test]
    fn write_values() {
        let g = branchy_graph();
        let init = crate::event::EventId(0);
        assert_eq!(g.write_value(init), Some(Val::Const(0)));
        let store = g
            .events()
            .iter()
            .find(|e| matches!(&e.kind, crate::event::EventKind::Store { .. }))
            .unwrap();
        assert!(g.write_value(store.id).is_some());
        let load = g
            .events()
            .iter()
            .find(|e| matches!(&e.kind, crate::event::EventKind::Load { .. }))
            .unwrap();
        assert_eq!(g.write_value(load.id), None);
    }
}
