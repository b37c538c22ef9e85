//! Property inheritance along IS-A paths.
//!
//! §6: the compression techniques "are also useful for efficient propagation
//! of inherited values and properties". Properties attach to concepts; the
//! effective value at a concept is the one defined at the *most specific*
//! subsuming concept. Under multiple inheritance two unrelated ancestors may
//! both define a property — that is reported as a conflict rather than
//! silently resolved, in the CLASSIC tradition of predictable semantics.

use std::collections::HashMap;

use crate::{ConceptId, Taxonomy, TaxonomyError};

/// The result of looking up one property at one concept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyLookup {
    /// No subsuming concept defines the property.
    Undefined,
    /// A unique most-specific provider defines it.
    Value {
        /// The effective value.
        value: String,
        /// The concept the value was inherited from (may be the queried
        /// concept itself).
        provider: ConceptId,
    },
    /// Several incomparable ancestors define it — a multiple-inheritance
    /// conflict the knowledge engineer must resolve.
    Conflict(Vec<(ConceptId, String)>),
}

/// A property store layered over a [`Taxonomy`].
#[derive(Debug, Clone, Default)]
pub struct Inheritance {
    /// (concept, property) -> value.
    local: HashMap<(ConceptId, String), String>,
}

impl Inheritance {
    /// Creates an empty property store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a property directly on a concept.
    pub fn set(
        &mut self,
        t: &Taxonomy,
        concept: &str,
        property: &str,
        value: &str,
    ) -> Result<(), TaxonomyError> {
        let id = t.id(concept)?;
        self.local
            .insert((id, property.to_string()), value.to_string());
        Ok(())
    }

    /// Resolves a property at `concept` by most-specific-provider-wins
    /// inheritance.
    pub fn effective(
        &self,
        t: &Taxonomy,
        concept: &str,
        property: &str,
    ) -> Result<PropertyLookup, TaxonomyError> {
        let target = t.id(concept)?;
        // Providers: concepts defining the property that subsume the target.
        let providers: Vec<ConceptId> = self
            .local
            .keys()
            .filter(|(id, prop)| prop == property && t.subsumes_id(*id, target))
            .map(|(id, _)| *id)
            .collect();
        if providers.is_empty() {
            return Ok(PropertyLookup::Undefined);
        }
        // Keep the most specific providers (no other provider below them).
        let minimal: Vec<ConceptId> = providers
            .iter()
            .copied()
            .filter(|&c| !providers.iter().any(|&d| d != c && t.subsumes_id(c, d)))
            .collect();
        if minimal.len() == 1 {
            let provider = minimal[0];
            let value = self.local[&(provider, property.to_string())].clone();
            Ok(PropertyLookup::Value { value, provider })
        } else {
            let mut conflict: Vec<(ConceptId, String)> = minimal
                .into_iter()
                .map(|c| (c, self.local[&(c, property.to_string())].clone()))
                .collect();
            conflict.sort_by_key(|(c, _)| *c);
            Ok(PropertyLookup::Conflict(conflict))
        }
    }

    /// All effective properties at `concept`, sorted by property name.
    /// Conflicted properties are included with their conflict records.
    pub fn effective_all(
        &self,
        t: &Taxonomy,
        concept: &str,
    ) -> Result<Vec<(String, PropertyLookup)>, TaxonomyError> {
        let mut props: Vec<String> = self
            .local
            .keys()
            .map(|(_, prop)| prop.clone())
            .collect();
        props.sort();
        props.dedup();
        let mut out = Vec::new();
        for prop in props {
            match self.effective(t, concept, &prop)? {
                PropertyLookup::Undefined => {}
                found => out.push((prop, found)),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Taxonomy, Inheritance) {
        let mut t = Taxonomy::new();
        t.add_root("animal").unwrap();
        t.add_concept("bird", &["animal"]).unwrap();
        t.add_concept("penguin", &["bird"]).unwrap();
        t.add_concept("pet", &["animal"]).unwrap();
        t.add_concept("parrot", &["bird", "pet"]).unwrap();
        let mut p = Inheritance::new();
        p.set(&t, "animal", "alive", "yes").unwrap();
        p.set(&t, "bird", "locomotion", "fly").unwrap();
        p.set(&t, "penguin", "locomotion", "swim").unwrap();
        (t, p)
    }

    #[test]
    fn inherits_from_nearest_ancestor() {
        let (t, p) = setup();
        let got = p.effective(&t, "parrot", "locomotion").unwrap();
        assert_eq!(
            got,
            PropertyLookup::Value {
                value: "fly".to_string(),
                provider: t.id("bird").unwrap()
            }
        );
        // alive comes from the root.
        assert!(matches!(
            p.effective(&t, "parrot", "alive").unwrap(),
            PropertyLookup::Value { value, .. } if value == "yes"
        ));
    }

    #[test]
    fn override_wins_over_inherited() {
        let (t, p) = setup();
        // Penguins override the bird default.
        let got = p.effective(&t, "penguin", "locomotion").unwrap();
        assert!(matches!(got, PropertyLookup::Value { value, .. } if value == "swim"));
    }

    #[test]
    fn own_value_is_most_specific() {
        let (t, mut p) = setup();
        p.set(&t, "parrot", "locomotion", "fly-and-talk").unwrap();
        let got = p.effective(&t, "parrot", "locomotion").unwrap();
        assert!(matches!(
            got,
            PropertyLookup::Value { value, provider }
                if value == "fly-and-talk" && provider == t.id("parrot").unwrap()
        ));
    }

    #[test]
    fn undefined_property() {
        let (t, p) = setup();
        assert_eq!(
            p.effective(&t, "pet", "locomotion").unwrap(),
            PropertyLookup::Undefined
        );
    }

    #[test]
    fn multiple_inheritance_conflict_detected() {
        let (t, mut p) = setup();
        p.set(&t, "pet", "diet", "pellets").unwrap();
        p.set(&t, "bird", "diet", "seeds").unwrap();
        match p.effective(&t, "parrot", "diet").unwrap() {
            PropertyLookup::Conflict(entries) => {
                let names: Vec<&str> = entries.iter().map(|(c, _)| t.name(*c)).collect();
                assert_eq!(names, vec!["bird", "pet"]);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        // Resolving locally clears the conflict.
        p.set(&t, "parrot", "diet", "fruit").unwrap();
        assert!(matches!(
            p.effective(&t, "parrot", "diet").unwrap(),
            PropertyLookup::Value { value, .. } if value == "fruit"
        ));
    }

    #[test]
    fn effective_all_lists_everything() {
        let (t, p) = setup();
        let all = p.effective_all(&t, "penguin").unwrap();
        let props: Vec<&str> = all.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(props, vec!["alive", "locomotion"]);
    }
}
