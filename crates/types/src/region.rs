//! Geographic regions.
//!
//! The paper deploys observers in four regions (NA, EA, WE, CE); the global
//! node population additionally spans the rest of the connected world. We
//! model eight coarse regions — enough to give the latency matrix realistic
//! structure without over-fitting.

use std::fmt;

/// A coarse geographic region hosting nodes of the overlay.
///
/// The first four variants are the paper's vantage-point regions
/// (Table I); the remainder round out the global population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// North America (paper vantage point "NA").
    NorthAmerica,
    /// Eastern Asia (paper vantage point "EA").
    EasternAsia,
    /// Western Europe (paper vantage point "WE").
    WesternEurope,
    /// Central Europe (paper vantage point "CE").
    CentralEurope,
    /// Eastern Europe and Russia.
    EasternEurope,
    /// South and Southeast Asia.
    SouthAsia,
    /// South America.
    SouthAmerica,
    /// Oceania (Australia / New Zealand).
    Oceania,
}

impl Region {
    /// All regions, in canonical order (stable across releases).
    pub const ALL: [Region; 8] = [
        Region::NorthAmerica,
        Region::EasternAsia,
        Region::WesternEurope,
        Region::CentralEurope,
        Region::EasternEurope,
        Region::SouthAsia,
        Region::SouthAmerica,
        Region::Oceania,
    ];

    /// The paper's four vantage-point regions, in the order used by its
    /// figures (WE, CE, NA, EA appear on Figure 2's axis; we keep the
    /// canonical NA/EA/WE/CE order of Table I).
    pub const VANTAGE: [Region; 4] = [
        Region::NorthAmerica,
        Region::EasternAsia,
        Region::WesternEurope,
        Region::CentralEurope,
    ];

    /// Number of regions.
    pub const COUNT: usize = Self::ALL.len();

    /// A dense index in `0..Region::COUNT`, suitable for matrix lookups.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The short code used in the paper's tables ("NA", "EA", "WE", "CE").
    pub fn abbrev(self) -> &'static str {
        match self {
            Region::NorthAmerica => "NA",
            Region::EasternAsia => "EA",
            Region::WesternEurope => "WE",
            Region::CentralEurope => "CE",
            Region::EasternEurope => "EE",
            Region::SouthAsia => "SA",
            Region::SouthAmerica => "SAm",
            Region::Oceania => "OC",
        }
    }

    /// Human-readable name as used in the paper's prose.
    pub fn name(self) -> &'static str {
        match self {
            Region::NorthAmerica => "North America",
            Region::EasternAsia => "Eastern Asia",
            Region::WesternEurope => "Western Europe",
            Region::CentralEurope => "Central Europe",
            Region::EasternEurope => "Eastern Europe",
            Region::SouthAsia => "South Asia",
            Region::SouthAmerica => "South America",
            Region::Oceania => "Oceania",
        }
    }

    /// True for the four regions where the paper placed measurement nodes.
    #[cfg(test)]
    pub fn is_vantage(self) -> bool {
        Self::VANTAGE.contains(&self)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_round_trip() {
        for (i, r) in Region::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn abbrevs_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for r in Region::ALL {
            assert!(seen.insert(r.abbrev()));
        }
    }

    #[test]
    fn vantage_regions_match_paper() {
        assert!(Region::NorthAmerica.is_vantage());
        assert!(Region::EasternAsia.is_vantage());
        assert!(Region::WesternEurope.is_vantage());
        assert!(Region::CentralEurope.is_vantage());
        assert!(!Region::Oceania.is_vantage());
        assert_eq!(Region::VANTAGE.len(), 4);
    }

    #[test]
    fn display_is_name() {
        assert_eq!(Region::EasternAsia.to_string(), "Eastern Asia");
    }
}
