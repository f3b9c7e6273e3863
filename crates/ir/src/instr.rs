//! Instructions, memory-access attributes, and operands.

use crate::arch::Scope;
use crate::mem::LocId;

/// A thread-local register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An instruction operand: a constant or a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// An immediate value.
    Const(u64),
    /// A register read.
    Reg(Reg),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Operand {
        Operand::Const(v)
    }
}

/// A memory reference: a declared name plus an optional element index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// The declared memory name accessed (the *virtual address*).
    pub loc: LocId,
    /// Element index for arrays; `Const(0)` for scalars.
    pub index: Operand,
}

impl MemRef {
    /// A reference to a scalar declaration.
    pub fn scalar(loc: LocId) -> MemRef {
        MemRef {
            loc,
            index: Operand::Const(0),
        }
    }

    /// A reference to an array element.
    pub fn indexed(loc: LocId, index: impl Into<Operand>) -> MemRef {
        MemRef {
            loc,
            index: index.into(),
        }
    }
}

/// Memory ordering of an access or fence (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemOrder {
    /// Plain, non-atomic access (PTX `.weak`, Vulkan non-atomic).
    Weak,
    /// Relaxed atomic.
    Relaxed,
    /// Acquire.
    Acquire,
    /// Release.
    Release,
    /// Acquire-release.
    AcqRel,
    /// Sequentially consistent (PTX `fence.sc`).
    Sc,
}

impl MemOrder {
    /// Whether the order implies atomicity.
    pub fn is_atomic(self) -> bool {
        self != MemOrder::Weak
    }

    /// Whether the order includes acquire semantics.
    pub fn includes_acquire(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::AcqRel | MemOrder::Sc)
    }

    /// Whether the order includes release semantics.
    pub fn includes_release(self) -> bool {
        matches!(self, MemOrder::Release | MemOrder::AcqRel | MemOrder::Sc)
    }
}

/// A PTX memory proxy (§3.3): the cache path used by an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proxy {
    /// The conventional path to memory.
    Generic,
    /// The texture cache.
    Texture,
    /// The surface cache.
    Surface,
    /// The constant cache.
    Constant,
}

impl std::fmt::Display for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Proxy::Generic => "generic",
            Proxy::Texture => "texture",
            Proxy::Surface => "surface",
            Proxy::Constant => "constant",
        })
    }
}

/// Attributes of a memory access (load/store/RMW).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessAttrs {
    /// Memory ordering (weak = non-atomic).
    pub order: MemOrder,
    /// Synchronization scope of the access.
    pub scope: Scope,
    /// Vulkan storage-class *semantics* carried by an atomic access
    /// (`semsc0`/`semsc1`). Bit 0 = semsc0, bit 1 = semsc1.
    pub sem_sc: u8,
    /// Vulkan per-access availability flag (non-atomic writes).
    pub avail: bool,
    /// Vulkan per-access visibility flag (non-atomic reads).
    pub visible: bool,
    /// Vulkan availability *semantics* on an atomic access.
    pub sem_av: bool,
    /// Vulkan visibility *semantics* on an atomic access.
    pub sem_vis: bool,
    /// Vulkan `NonPrivate` flag: the access participates in
    /// inter-thread synchronization. Atomics are always non-private.
    pub nonpriv: bool,
}

impl AccessAttrs {
    /// A plain weak access at the narrowest PTX scope.
    pub fn weak() -> AccessAttrs {
        AccessAttrs {
            order: MemOrder::Weak,
            scope: Scope::Cta,
            sem_sc: 0,
            avail: false,
            visible: false,
            sem_av: false,
            sem_vis: false,
            nonpriv: false,
        }
    }

    /// An atomic access with the given order and scope.
    pub fn atomic(order: MemOrder, scope: Scope) -> AccessAttrs {
        AccessAttrs {
            order,
            scope,
            nonpriv: true,
            ..AccessAttrs::weak()
        }
    }

    /// Sets storage-class semantics bits (builder style).
    pub fn with_sem_sc(mut self, sem_sc: u8) -> AccessAttrs {
        self.sem_sc = sem_sc;
        self
    }

    /// Sets the per-access availability flag (builder style).
    pub fn with_avail(mut self) -> AccessAttrs {
        self.avail = true;
        self.nonpriv = true;
        self
    }

    /// Sets availability semantics (builder style).
    pub fn with_sem_av(mut self) -> AccessAttrs {
        self.sem_av = true;
        self
    }
}

/// Attributes of a memory fence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenceAttrs {
    /// Ordering strength of the fence.
    pub order: MemOrder,
    /// Synchronization scope.
    pub scope: Scope,
    /// PTX proxy the fence orders; `proxy_fence` distinguishes the
    /// special proxy fences.
    pub proxy: Proxy,
    /// Which PTX proxy fence this is, if any.
    pub proxy_fence: Option<ProxyFence>,
    /// Vulkan storage-class semantics bits.
    pub sem_sc: u8,
    /// Vulkan availability semantics.
    pub sem_av: bool,
    /// Vulkan visibility semantics.
    pub sem_vis: bool,
    /// Vulkan availability-to-device operation.
    pub av_device: bool,
    /// Vulkan visibility-to-device operation.
    pub vis_device: bool,
}

impl FenceAttrs {
    /// A fence with the given order and scope (generic proxy).
    pub fn new(order: MemOrder, scope: Scope) -> FenceAttrs {
        FenceAttrs {
            order,
            scope,
            proxy: Proxy::Generic,
            proxy_fence: None,
            sem_sc: 0,
            sem_av: false,
            sem_vis: false,
            av_device: false,
            vis_device: false,
        }
    }

    /// A PTX proxy fence.
    pub fn proxy_fence(kind: ProxyFence, scope: Scope) -> FenceAttrs {
        FenceAttrs {
            proxy_fence: Some(kind),
            ..FenceAttrs::new(MemOrder::Weak, scope)
        }
    }

    /// Sets storage-class semantics (builder style).
    pub fn with_sem_sc(mut self, sem_sc: u8) -> FenceAttrs {
        self.sem_sc = sem_sc;
        self
    }

    /// Sets availability semantics (builder style).
    pub fn with_sem_av(mut self) -> FenceAttrs {
        self.sem_av = true;
        self
    }
}

/// The PTX proxy fences (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProxyFence {
    /// Reestablishes ordering of same-location accesses across proxies.
    Alias,
    /// Synchronizes the texture cache with the generic proxy.
    Texture,
    /// Synchronizes the surface cache with the generic proxy.
    Surface,
    /// Synchronizes the constant cache with the generic proxy.
    Constant,
}

/// Attributes of a control barrier (§3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierAttrs {
    /// Barrier identifier: synchronization is only effective between
    /// barriers with the same id. May be a register (PTX allows dynamic
    /// barrier ids, see the paper's Figure 7).
    pub id: Operand,
    /// Scope of the barrier (a workgroup/CTA in both models).
    pub scope: Scope,
    /// Optional memory semantics (Vulkan control barriers can carry
    /// acquire/release memory ordering).
    pub fence: Option<FenceAttrs>,
}

/// A read-modify-write operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// `atom.add` — fetch-and-add.
    Add,
    /// `atom.exch` — exchange.
    Exchange,
    /// `atom.cas expected` — compare-and-swap: the write happens only if
    /// the loaded value equals `expected`.
    Cas {
        /// Value compared against the current memory contents.
        expected: Operand,
    },
}

/// A register-level ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Copy.
    Mov,
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

/// Branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// Branch if equal (`beq`).
    Eq,
    /// Branch if not equal (`bne`).
    Ne,
}

/// A label identifier (interned by the front-end).
pub type LabelId = u32;

/// A single IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// `ld dst, [addr]`
    Load {
        /// Destination register.
        dst: Reg,
        /// Address.
        addr: MemRef,
        /// Access attributes.
        attrs: AccessAttrs,
    },
    /// `st [addr], src`
    Store {
        /// Address.
        addr: MemRef,
        /// Stored value.
        src: Operand,
        /// Access attributes.
        attrs: AccessAttrs,
    },
    /// `atom.op dst, [addr], operand` — an atomic read-modify-write,
    /// modeled as a read/write event pair related by `rmw`.
    Rmw {
        /// Receives the *old* memory value.
        dst: Reg,
        /// Address.
        addr: MemRef,
        /// The modification applied.
        op: RmwOp,
        /// Second operand of the modification (added value, swapped-in
        /// value, or CAS replacement value).
        operand: Operand,
        /// Access attributes.
        attrs: AccessAttrs,
    },
    /// A memory fence.
    Fence {
        /// Fence attributes.
        attrs: FenceAttrs,
    },
    /// A control barrier.
    Barrier {
        /// Barrier attributes.
        attrs: BarrierAttrs,
    },
    /// A register ALU operation `dst = a op b`.
    Alu {
        /// Destination register.
        dst: Reg,
        /// Operation.
        op: AluOp,
        /// First operand.
        a: Operand,
        /// Second operand (ignored for `Mov`).
        b: Operand,
    },
    /// A jump target.
    Label(LabelId),
    /// An unconditional jump.
    Goto(LabelId),
    /// A conditional jump `bcc a, b, target`.
    Branch {
        /// Comparison.
        cmp: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
        /// Jump target when the comparison holds.
        target: LabelId,
    },
}

impl Instruction {
    /// Shorthand for a load.
    pub fn load(dst: Reg, addr: MemRef, attrs: AccessAttrs) -> Instruction {
        Instruction::Load { dst, addr, attrs }
    }

    /// Shorthand for a store.
    pub fn store(addr: MemRef, src: Operand, attrs: AccessAttrs) -> Instruction {
        Instruction::Store { addr, src, attrs }
    }

    /// Shorthand for a fence.
    pub fn fence(attrs: FenceAttrs) -> Instruction {
        Instruction::Fence { attrs }
    }

    /// Whether the instruction can produce a memory side effect (used by
    /// spinloop detection: a loop is a *spinloop* when its body has none).
    pub fn has_side_effect(&self) -> bool {
        matches!(
            self,
            Instruction::Store { .. }
                | Instruction::Rmw { .. }
                | Instruction::Fence { .. }
                | Instruction::Barrier { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_order_predicates() {
        assert!(!MemOrder::Weak.is_atomic());
        assert!(MemOrder::Relaxed.is_atomic());
        assert!(MemOrder::Acquire.includes_acquire());
        assert!(!MemOrder::Acquire.includes_release());
        assert!(MemOrder::AcqRel.includes_acquire());
        assert!(MemOrder::AcqRel.includes_release());
        assert!(MemOrder::Sc.includes_acquire() && MemOrder::Sc.includes_release());
    }

    #[test]
    fn access_attr_builders() {
        let a = AccessAttrs::atomic(MemOrder::Release, Scope::Dv)
            .with_sem_sc(0b01)
            .with_sem_av();
        assert!(a.nonpriv);
        assert!(a.sem_av);
        assert_eq!(a.sem_sc, 1);
        let w = AccessAttrs::weak().with_avail();
        assert!(w.avail && w.nonpriv);
    }

    #[test]
    fn side_effects() {
        let st = Instruction::store(
            MemRef::scalar(LocId(0)),
            Operand::Const(1),
            AccessAttrs::weak(),
        );
        assert!(st.has_side_effect());
        let ld = Instruction::load(Reg(0), MemRef::scalar(LocId(0)), AccessAttrs::weak());
        assert!(!ld.has_side_effect());
        assert!(!Instruction::Goto(0).has_side_effect());
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::Reg(Reg(3)));
        assert_eq!(Operand::from(9u64), Operand::Const(9));
    }
}
