//! Deterministic subject populations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rgpdos_core::{ConsentDecision, Row, SubjectId};

/// One generated data subject with the `user` row of Listing 1 and the
/// consent decision they give to the benchmark purpose.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedSubject {
    /// The subject identifier.
    pub subject: SubjectId,
    /// Their `user` row (`name`, `pwd`, `year_of_birthdate`).
    pub row: Row,
    /// The consent they give to the benchmark's processing purpose.
    pub consent: ConsentDecision,
}

/// Deterministic generator of subject populations.
#[derive(Debug, Clone)]
pub struct PopulationGenerator {
    seed: u64,
    consent_rate: f64,
    restricted_rate: f64,
}

impl PopulationGenerator {
    /// Creates a generator with the given seed.  By default 75% of subjects
    /// grant full consent, 15% grant a view-restricted consent and the rest
    /// refuse.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            consent_rate: 0.75,
            restricted_rate: 0.15,
        }
    }

    /// Sets the fraction of subjects granting full consent (the remainder is
    /// split between view-restricted and refused according to the restricted
    /// rate).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn with_consent_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "consent rate must be a probability"
        );
        self.consent_rate = rate;
        self
    }

    /// Sets the fraction of subjects granting a view-restricted consent.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn with_restricted_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "restricted rate must be a probability"
        );
        self.restricted_rate = rate;
        self
    }

    /// Generates `count` subjects.
    pub fn generate(&self, count: usize) -> Vec<GeneratedSubject> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let first_names = [
            "Chiraz", "Alain", "Raphael", "Adrien", "Vincent", "Benoit", "Natacha", "Ludovic",
            "Amina", "Pierre", "Lucie", "Karim",
        ];
        let last_names = [
            "Benamor",
            "Tchana",
            "Colin",
            "Le Berre",
            "Berger",
            "Combemale",
            "Crooks",
            "Pailler",
            "Diallo",
            "Martin",
            "Nguyen",
            "Garcia",
        ];
        (0..count)
            .map(|i| {
                let first = first_names[rng.gen_range(0..first_names.len())];
                let last = last_names[rng.gen_range(0..last_names.len())];
                let year = rng.gen_range(1940..2005i64);
                let password: String = (0..12)
                    .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                    .collect();
                let draw: f64 = rng.gen();
                let consent = if draw < self.consent_rate {
                    ConsentDecision::All
                } else if draw < self.consent_rate + self.restricted_rate {
                    ConsentDecision::View("v_ano".into())
                } else {
                    ConsentDecision::None
                };
                GeneratedSubject {
                    subject: SubjectId::new(i as u64),
                    row: Row::new()
                        .with("name", format!("{first} {last}"))
                        .with("pwd", password)
                        .with("year_of_birthdate", year),
                    consent,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = PopulationGenerator::new(42).generate(100);
        let b = PopulationGenerator::new(42).generate(100);
        let c = PopulationGenerator::new(43).generate(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn rows_match_the_listing1_schema() {
        use rgpdos_core::schema::listing1_user_schema;
        let schema = listing1_user_schema();
        for subject in PopulationGenerator::new(7).generate(50) {
            schema.validate_row(&subject.row).unwrap();
        }
    }

    #[test]
    fn consent_rates_are_respected_approximately() {
        let population = PopulationGenerator::new(1)
            .with_consent_rate(0.5)
            .with_restricted_rate(0.2)
            .generate(2_000);
        let full = population
            .iter()
            .filter(|s| s.consent == ConsentDecision::All)
            .count() as f64
            / 2_000.0;
        let restricted = population
            .iter()
            .filter(|s| matches!(s.consent, ConsentDecision::View(_)))
            .count() as f64
            / 2_000.0;
        assert!((full - 0.5).abs() < 0.05, "full consent rate {full}");
        assert!(
            (restricted - 0.2).abs() < 0.05,
            "restricted rate {restricted}"
        );
    }

    #[test]
    fn zero_and_full_consent_rates() {
        let none = PopulationGenerator::new(2)
            .with_consent_rate(0.0)
            .with_restricted_rate(0.0);
        assert!(none
            .generate(100)
            .iter()
            .all(|s| s.consent == ConsentDecision::None));
        let all = PopulationGenerator::new(2).with_consent_rate(1.0);
        assert!(all
            .generate(100)
            .iter()
            .all(|s| s.consent == ConsentDecision::All));
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_rate_panics() {
        let _ = PopulationGenerator::new(1).with_consent_rate(1.5);
    }
}
