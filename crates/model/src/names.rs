//! Shared-string identifier newtypes.
//!
//! Components, mechanisms, resource types, tiers and mechanism parameters
//! are all referenced by name in the Aved specification language. Distinct
//! newtypes keep the reference graph type-safe: a [`ComponentName`] can
//! never be used where a [`MechanismName`] is required, even though both
//! wrap a string. The string is shared (`Arc<str>`), so cloning a name
//! copies a pointer: a search clones names into every candidate design it
//! builds. (Serializing them through the registry `serde` needs its `rc`
//! feature.)

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

macro_rules! define_name {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
        )]
        #[serde(transparent)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Creates a name from any string-like value.
            pub fn new<S: Into<String>>(s: S) -> $name {
                $name(Arc::from(s.into()))
            }

            /// The name as a string slice.
            #[must_use]
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> $name {
                $name(Arc::from(s))
            }
        }

        impl From<String> for $name {
            fn from(s: String) -> $name {
                $name(Arc::from(s))
            }
        }

        impl AsRef<str> for $name {
            fn as_ref(&self) -> &str {
                &self.0
            }
        }

        impl Borrow<str> for $name {
            fn borrow(&self) -> &str {
                &self.0
            }
        }
    };
}

define_name! {
    /// The name of a component type (e.g. `machineA`, `linux`, `webserver`).
    ComponentName
}

define_name! {
    /// The name of an availability mechanism (e.g. `maintenanceA`,
    /// `checkpoint`).
    MechanismName
}

define_name! {
    /// The name of a resource type (e.g. `rA` … `rI`).
    ResourceTypeName
}

define_name! {
    /// The name of a service tier (e.g. `web`, `application`, `database`).
    TierName
}

define_name! {
    /// The name of a mechanism configuration parameter (e.g. `level`,
    /// `checkpoint_interval`, `storage_location`).
    ParamName
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn construction_and_display() {
        let c = ComponentName::new("machineA");
        assert_eq!(c.as_str(), "machineA");
        assert_eq!(c.to_string(), "machineA");
        assert_eq!(ComponentName::from("machineA"), c);
        assert_eq!(ComponentName::from(String::from("machineA")), c);
    }

    #[test]
    fn usable_as_hashmap_key_with_str_lookup() {
        let mut m: HashMap<ComponentName, i32> = HashMap::new();
        m.insert(ComponentName::new("linux"), 1);
        // Borrow<str> lets us look up by &str without allocating.
        assert_eq!(m.get("linux"), Some(&1));
        assert_eq!(m.get("unix"), None);
    }

    #[test]
    fn names_are_ordered() {
        let mut v = [TierName::new("web"), TierName::new("application")];
        v.sort();
        assert_eq!(v[0].as_str(), "application");
    }

    #[test]
    fn distinct_newtypes() {
        // Compile-time property really, but verify the types exist and are
        // independently constructible.
        let _: MechanismName = "checkpoint".into();
        let _: ResourceTypeName = "rA".into();
        let _: ParamName = "level".into();
    }
}
