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
    fn index_round_trips() {
        let id = LinkId::from(17usize);
        assert_eq!(id.index(), 17);
    }
}
