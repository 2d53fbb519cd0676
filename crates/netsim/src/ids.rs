//! Strongly-typed identifiers for simulator entities.
//!
//! All simulator state lives in flat arenas indexed by these newtypes; the
//! types exist purely to prevent mixing, say, a queue index with a link index.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw arena index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(v as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A host (endpoint NIC) in the topology.
    HostId,
    "h"
);
id_type!(
    /// A switch in the topology.
    SwitchId,
    "sw"
);
id_type!(
    /// A unidirectional link (egress queue + propagation pipe).
    LinkId,
    "l"
);
id_type!(
    /// A transport connection (one sender/receiver pair).
    ConnId,
    "c"
);
id_type!(
    /// A flow/message tracked by the statistics collector.
    FlowId,
    "f"
);

/// The receiving side of a link: either a switch or a host NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// A switch identified by arena index.
    Switch(SwitchId),
    /// A host identified by arena index.
    Host(HostId),
}

impl NodeRef {
    /// The bit of a node word marking a host.
    pub(crate) const HOST_BIT: u32 = 1 << 31;

    /// The node as one `u32` word: its id, with [`NodeRef::HOST_BIT`] set
    /// for a host. The event queue's packet payloads and a link's far end
    /// store nodes this way.
    ///
    /// # Panics
    ///
    /// Panics if the id is not below 2^31 − 3: the three host words above
    /// that are the event queue's payload tags.
    #[inline]
    pub(crate) fn word(self) -> u32 {
        let (bit, id) = match self {
            NodeRef::Switch(s) => (0, s.0),
            NodeRef::Host(h) => (NodeRef::HOST_BIT, h.0),
        };
        assert!(id < NodeRef::HOST_BIT - 3, "node id {self} too large");
        bit | id
    }

    /// The node a [`NodeRef::word`] stands for.
    #[inline]
    pub(crate) fn from_word(word: u32) -> NodeRef {
        if word & NodeRef::HOST_BIT != 0 {
            NodeRef::Host(HostId(word & !NodeRef::HOST_BIT))
        } else {
            NodeRef::Switch(SwitchId(word))
        }
    }
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Switch(s) => write!(f, "{s}"),
            NodeRef::Host(h) => write!(f, "{h}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(format!("{}", HostId(3)), "h3");
        assert_eq!(format!("{}", SwitchId(1)), "sw1");
        assert_eq!(format!("{}", LinkId(9)), "l9");
        assert_eq!(format!("{}", NodeRef::Host(HostId(2))), "h2");
    }

    #[test]
    fn node_words_round_trip() {
        for node in [
            NodeRef::Switch(SwitchId(0)),
            NodeRef::Switch(SwitchId(NodeRef::HOST_BIT - 4)),
            NodeRef::Host(HostId(0)),
            NodeRef::Host(HostId(NodeRef::HOST_BIT - 4)),
        ] {
            assert_eq!(NodeRef::from_word(node.word()), node);
        }
    }

    #[test]
    fn index_round_trips() {
        let id = LinkId::from(17usize);
        assert_eq!(id.index(), 17);
    }
}
