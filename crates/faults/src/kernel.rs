//! Kernel versions and the vulnerability database.
//!
//! The paper's first experiment hinges on OS diversification: "we
//! intentionally used an exploitable kernel version on all GM clocks" vs.
//! "diversifying the used Linux kernel version so only virtual GM c1_4
//! used the exploitable Linux kernel v4.19.1". The attacker's exploit for
//! CVE-2018-18955 (a `user_namespace` id-mapping privilege escalation)
//! succeeds exactly on vulnerable kernels, so whether Byzantine fault
//! tolerance survives depends on how many GMs share the vulnerable stack.

use std::fmt;

/// A Linux kernel version triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelVersion {
    /// Major version.
    pub major: u16,
    /// Minor version.
    pub minor: u16,
    /// Patch level.
    pub patch: u16,
}

impl KernelVersion {
    /// Creates a version triple.
    pub const fn new(major: u16, minor: u16, patch: u16) -> Self {
        KernelVersion {
            major,
            minor,
            patch,
        }
    }

    /// The exploitable kernel the paper installs on attack targets.
    pub const V4_19_1: KernelVersion = KernelVersion::new(4, 19, 1);
    /// A patched 4.19 series kernel.
    pub const V4_19_5: KernelVersion = KernelVersion::new(4, 19, 5);
    /// A newer diversified kernel.
    pub const V5_4_0: KernelVersion = KernelVersion::new(5, 4, 0);
    /// Another diversified kernel.
    pub const V5_10_0: KernelVersion = KernelVersion::new(5, 10, 0);
}

impl fmt::Display for KernelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)
    }
}

/// Error from parsing a kernel version string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKernelVersionError;

impl fmt::Display for ParseKernelVersionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected `major.minor.patch`")
    }
}

impl std::error::Error for ParseKernelVersionError {}

impl std::str::FromStr for KernelVersion {
    type Err = ParseKernelVersionError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut next = || {
            parts
                .next()
                .and_then(|p| p.parse::<u16>().ok())
                .ok_or(ParseKernelVersionError)
        };
        let v = KernelVersion::new(next()?, next()?, next()?);
        if parts.next().is_some() {
            return Err(ParseKernelVersionError);
        }
        Ok(v)
    }
}

/// Identifies a CVE in the database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CveId {
    /// CVE-2018-18955: `user_namespace` privilege escalation
    /// (exploit 47164, used by the paper's attacker).
    Cve2018_18955,
}

impl fmt::Display for CveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CveId::Cve2018_18955 => write!(f, "CVE-2018-18955"),
        }
    }
}

/// Returns `true` if `kernel` is vulnerable to `cve`.
///
/// CVE-2018-18955 affects Linux 4.15 through 4.19.1 (fixed in 4.19.2 /
/// 4.18.19).
pub fn is_vulnerable(kernel: KernelVersion, cve: CveId) -> bool {
    match cve {
        CveId::Cve2018_18955 => {
            kernel >= KernelVersion::new(4, 15, 0) && kernel <= KernelVersion::new(4, 19, 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_kernel_is_vulnerable() {
        assert!(is_vulnerable(KernelVersion::V4_19_1, CveId::Cve2018_18955));
    }

    #[test]
    fn patched_and_diverse_kernels_are_not() {
        assert!(!is_vulnerable(KernelVersion::V4_19_5, CveId::Cve2018_18955));
        assert!(!is_vulnerable(KernelVersion::V5_4_0, CveId::Cve2018_18955));
        assert!(!is_vulnerable(KernelVersion::V5_10_0, CveId::Cve2018_18955));
        assert!(!is_vulnerable(
            KernelVersion::new(4, 14, 99),
            CveId::Cve2018_18955
        ));
    }

    #[test]
    fn version_ordering() {
        assert!(KernelVersion::new(4, 19, 1) < KernelVersion::new(4, 19, 2));
        assert!(KernelVersion::new(4, 19, 9) < KernelVersion::new(5, 4, 0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(KernelVersion::V4_19_1.to_string(), "4.19.1");
        assert_eq!(CveId::Cve2018_18955.to_string(), "CVE-2018-18955");
    }

    #[test]
    fn parse_roundtrip() {
        let v: KernelVersion = "5.10.42".parse().unwrap();
        assert_eq!(v, KernelVersion::new(5, 10, 42));
        assert_eq!(v.to_string().parse::<KernelVersion>().unwrap(), v);
        assert!("5.10".parse::<KernelVersion>().is_err());
        assert!("5.10.x".parse::<KernelVersion>().is_err());
        assert!("5.10.4.2".parse::<KernelVersion>().is_err());
    }
}
