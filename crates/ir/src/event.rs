//! Events, event tags (Table 2), and symbolic values.

use crate::instr::{AluOp, BarrierAttrs, CmpOp, FenceAttrs, Reg};
use crate::mem::LocId;

/// Identifier of an event in an [`crate::EventGraph`].
///
/// Init events occupy the lowest ids, followed by thread events in
/// program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

impl EventId {
    /// Index into the event list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An event tag: base tags of the `.cat` language plus the GPU tags of
/// Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
#[allow(missing_docs)] // the variants mirror Table 2 one-for-one
pub enum Tag {
    // Core event classes.
    R = 0,
    W,
    F,
    /// Control barrier (`B`/`CBAR` in cat).
    B,
    /// Initial write.
    IW,
    /// Part of an RMW pair.
    RMW,
    // Atomicity / memory orders.
    A,
    ACQ,
    REL,
    SC,
    RLX,
    // Vulkan privacy.
    NONPRIV,
    // Instruction scopes.
    SG,
    WG,
    QF,
    DV,
    CTA,
    GPU,
    SYS,
    // PTX proxies.
    GEN,
    SUR,
    TEX,
    CON,
    /// PTX alias proxy fence.
    ALIAS,
    // Vulkan storage classes.
    SC0,
    SC1,
    SEMSC0,
    SEMSC1,
    // Vulkan availability / visibility.
    AV,
    VIS,
    SEMAV,
    SEMVIS,
    AVDEVICE,
    VISDEVICE,
}

impl Tag {
    /// All tags (for iteration).
    pub const ALL: [Tag; 34] = [
        Tag::R,
        Tag::W,
        Tag::F,
        Tag::B,
        Tag::IW,
        Tag::RMW,
        Tag::A,
        Tag::ACQ,
        Tag::REL,
        Tag::SC,
        Tag::RLX,
        Tag::NONPRIV,
        Tag::SG,
        Tag::WG,
        Tag::QF,
        Tag::DV,
        Tag::CTA,
        Tag::GPU,
        Tag::SYS,
        Tag::GEN,
        Tag::SUR,
        Tag::TEX,
        Tag::CON,
        Tag::ALIAS,
        Tag::SC0,
        Tag::SC1,
        Tag::SEMSC0,
        Tag::SEMSC1,
        Tag::AV,
        Tag::VIS,
        Tag::SEMAV,
        Tag::SEMVIS,
        Tag::AVDEVICE,
        Tag::VISDEVICE,
    ];

    /// Looks a tag up by its `.cat` name.
    ///
    /// `M` (any memory access) and `I`/`CBAR` aliases are resolved by the
    /// relation evaluator, not here; this handles exact tag names only.
    pub fn from_name(name: &str) -> Option<Tag> {
        Tag::ALL.iter().copied().find(|t| t.name() == name)
    }

    /// The `.cat` name of the tag.
    pub fn name(self) -> &'static str {
        match self {
            Tag::R => "R",
            Tag::W => "W",
            Tag::F => "F",
            Tag::B => "B",
            Tag::IW => "IW",
            Tag::RMW => "RMW",
            Tag::A => "A",
            Tag::ACQ => "ACQ",
            Tag::REL => "REL",
            Tag::SC => "SC",
            Tag::RLX => "RLX",
            Tag::NONPRIV => "NONPRIV",
            Tag::SG => "SG",
            Tag::WG => "WG",
            Tag::QF => "QF",
            Tag::DV => "DV",
            Tag::CTA => "CTA",
            Tag::GPU => "GPU",
            Tag::SYS => "SYS",
            Tag::GEN => "GEN",
            Tag::SUR => "SUR",
            Tag::TEX => "TEX",
            Tag::CON => "CON",
            Tag::ALIAS => "ALIAS",
            Tag::SC0 => "SC0",
            Tag::SC1 => "SC1",
            Tag::SEMSC0 => "SEMSC0",
            Tag::SEMSC1 => "SEMSC1",
            Tag::AV => "AV",
            Tag::VIS => "VIS",
            Tag::SEMAV => "SEMAV",
            Tag::SEMVIS => "SEMVIS",
            Tag::AVDEVICE => "AVDEVICE",
            Tag::VISDEVICE => "VISDEVICE",
        }
    }
}

/// A set of event tags (bit set over [`Tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TagSet(u64);

impl TagSet {
    /// The empty tag set.
    pub fn new() -> TagSet {
        TagSet(0)
    }

    /// Inserts a tag.
    pub fn insert(&mut self, t: Tag) -> &mut TagSet {
        self.0 |= 1 << (t as u32);
        self
    }

    /// Inserts a tag (builder style).
    pub fn with(mut self, t: Tag) -> TagSet {
        self.insert(t);
        self
    }

    /// Removes a tag.
    pub fn remove(&mut self, t: Tag) -> &mut TagSet {
        self.0 &= !(1 << (t as u32));
        self
    }

    /// Tests membership.
    pub fn contains(self, t: Tag) -> bool {
        self.0 >> (t as u32) & 1 == 1
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the contained tags.
    pub fn iter(self) -> impl Iterator<Item = Tag> {
        Tag::ALL.into_iter().filter(move |&t| self.contains(t))
    }
}

impl FromIterator<Tag> for TagSet {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> TagSet {
        let mut s = TagSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl std::fmt::Display for TagSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.iter().map(Tag::name).collect();
        write!(f, "{{{}}}", names.join(","))
    }
}

/// A symbolic value: a constant, the result of a read, or an ALU
/// combination thereof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// An immediate.
    Const(u64),
    /// The value loaded by a read event.
    Read(EventId),
    /// A binary ALU operation.
    Bin(AluOp, Box<Val>, Box<Val>),
}

impl Val {
    /// Builds a binary operation, constant-folding when possible.
    pub fn bin(op: AluOp, a: Val, b: Val) -> Val {
        if let (Val::Const(x), Val::Const(y)) = (&a, &b) {
            return Val::Const(Val::apply(op, *x, *y));
        }
        if op == AluOp::Mov {
            return a;
        }
        Val::Bin(op, Box::new(a), Box::new(b))
    }

    /// Applies an ALU operation to concrete values.
    pub fn apply(op: AluOp, a: u64, b: u64) -> u64 {
        match op {
            AluOp::Mov => a,
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
        }
    }

    /// The constant value, if this is a constant.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            Val::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// All read events this value depends on (the `data`/`addr`
    /// dependency sources).
    pub fn reads(&self, out: &mut Vec<EventId>) {
        match self {
            Val::Const(_) => {}
            Val::Read(e) => out.push(*e),
            Val::Bin(_, a, b) => {
                a.reads(out);
                b.reads(out);
            }
        }
    }
}

/// A branch condition over symbolic values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Guard {
    /// Comparison operator.
    pub cmp: CmpOp,
    /// Left value.
    pub a: Val,
    /// Right value.
    pub b: Val,
}

impl Guard {
    /// Evaluates the guard over concrete values.
    pub fn eval(&self, a: u64, b: u64) -> bool {
        match self.cmp {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// A resolved memory address: a declared name plus a symbolic index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrVal {
    /// The declared (virtual) name.
    pub loc: LocId,
    /// Element index.
    pub index: Val,
}

/// What an event does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An initial write populating memory (one per physical element).
    Init {
        /// Physical location.
        loc: LocId,
        /// Element index.
        index: u32,
        /// Initial value.
        value: u64,
    },
    /// A load into a register.
    Load {
        /// Destination register (for reporting).
        reg: Reg,
        /// Address.
        addr: AddrVal,
    },
    /// A store.
    Store {
        /// Address.
        addr: AddrVal,
        /// Stored value.
        value: Val,
    },
    /// The read half of an RMW.
    RmwLoad {
        /// Destination register.
        reg: Reg,
        /// Address.
        addr: AddrVal,
    },
    /// The write half of an RMW. For CAS, the event only executes when
    /// the paired read loaded `cas_expected`.
    RmwStore {
        /// Address.
        addr: AddrVal,
        /// Stored value.
        value: Val,
        /// The paired read event.
        read: EventId,
        /// CAS expectation (None for unconditional RMWs).
        cas_expected: Option<Val>,
    },
    /// A memory fence (including PTX proxy fences and Vulkan
    /// av/vis-device operations).
    Fence(FenceAttrs),
    /// A control barrier.
    Barrier {
        /// Barrier id value.
        id: Val,
        /// Attributes.
        attrs: BarrierAttrs,
    },
}

impl EventKind {
    /// The address accessed, for memory events.
    pub fn addr(&self) -> Option<&AddrVal> {
        match self {
            EventKind::Load { addr, .. }
            | EventKind::Store { addr, .. }
            | EventKind::RmwLoad { addr, .. }
            | EventKind::RmwStore { addr, .. } => Some(addr),
            _ => None,
        }
    }
}

/// An event of the compiled event graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Identifier.
    pub id: EventId,
    /// Owning thread (`None` for init events).
    pub thread: Option<usize>,
    /// Payload.
    pub kind: EventKind,
    /// Tag set (Table 2).
    pub tags: TagSet,
    /// The guarded block the event belongs to (init events live in the
    /// always-executed block 0).
    pub block: crate::unroll::BlockId,
    /// Program-order index within the thread (increases along any path).
    pub po_index: usize,
    /// Source label, e.g. `P0:3`.
    pub label: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagset_insert_contains() {
        let mut s = TagSet::new();
        assert!(s.is_empty());
        s.insert(Tag::W).insert(Tag::REL);
        assert!(s.contains(Tag::W));
        assert!(s.contains(Tag::REL));
        assert!(!s.contains(Tag::R));
        assert_eq!(s.iter().count(), 2);
    }

    #[test]
    fn tag_names_roundtrip() {
        for t in Tag::ALL {
            assert_eq!(Tag::from_name(t.name()), Some(t), "{t:?}");
        }
        assert_eq!(Tag::from_name("nope"), None);
    }

    #[test]
    fn tagset_display() {
        let s = TagSet::new().with(Tag::W).with(Tag::ACQ);
        assert_eq!(s.to_string(), "{W,ACQ}");
    }

    #[test]
    fn val_constant_folding() {
        let v = Val::bin(AluOp::Add, Val::Const(2), Val::Const(3));
        assert_eq!(v, Val::Const(5));
        let m = Val::bin(AluOp::Mov, Val::Read(EventId(1)), Val::Const(0));
        assert_eq!(m, Val::Read(EventId(1)));
    }

    #[test]
    fn val_reads_collects_dependencies() {
        let v = Val::bin(
            AluOp::Add,
            Val::Read(EventId(1)),
            Val::bin(AluOp::Xor, Val::Read(EventId(2)), Val::Const(1)),
        );
        let mut rs = Vec::new();
        v.reads(&mut rs);
        assert_eq!(rs, vec![EventId(1), EventId(2)]);
    }

    #[test]
    fn guard_eval() {
        let g = Guard {
            cmp: CmpOp::Eq,
            a: Val::Const(0),
            b: Val::Const(0),
        };
        assert!(g.eval(1, 1));
        assert!(!g.eval(1, 2));
        let g = Guard {
            cmp: CmpOp::Ne,
            a: Val::Const(0),
            b: Val::Const(0),
        };
        assert!(g.eval(1, 2));
    }

    #[test]
    fn apply_ops() {
        assert_eq!(Val::apply(AluOp::Add, u64::MAX, 1), 0);
        assert_eq!(Val::apply(AluOp::Sub, 0, 1), u64::MAX);
        assert_eq!(Val::apply(AluOp::And, 0b1100, 0b1010), 0b1000);
        assert_eq!(Val::apply(AluOp::Or, 0b1100, 0b1010), 0b1110);
        assert_eq!(Val::apply(AluOp::Xor, 0b1100, 0b1010), 0b0110);
        assert_eq!(Val::apply(AluOp::Mov, 7, 9), 7);
    }
}
