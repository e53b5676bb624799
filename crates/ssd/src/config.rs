//! SSD organization and timing configuration.

use serde::{Deserialize, Serialize};

/// Organization and timing parameters of the simulated SSD.
///
/// The defaults approximate a datacenter NVMe TLC drive: ~70 µs flash read,
/// ~600 µs program, a few microseconds of controller and transfer overhead,
/// organized as 8 channels × 4 chips.
///
/// # Examples
///
/// ```
/// use ssd_sim::SsdConfig;
/// let cfg = SsdConfig::nvme_datacenter();
/// assert_eq!(cfg.total_chips(), cfg.channels * cfg.chips_per_channel);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Number of flash channels.
    pub channels: usize,
    /// Flash chips (dies) per channel.
    pub chips_per_channel: usize,
    /// Flash page size in bytes (the unit of read/program).
    pub flash_page_bytes: u64,
    /// Flash array read latency (tR) in nanoseconds.
    pub read_latency_ns: f64,
    /// Flash array program latency (tPROG) in nanoseconds.
    pub program_latency_ns: f64,
    /// Controller firmware + queueing overhead per request in nanoseconds.
    pub controller_latency_ns: f64,
    /// Data transfer latency over the channel/interface in nanoseconds.
    pub transfer_latency_ns: f64,
    /// How far the device clock advances per submitted request, modelling
    /// the host submission rate, in nanoseconds.
    pub request_spacing_ns: f64,
}

impl SsdConfig {
    /// A datacenter NVMe TLC drive.
    pub fn nvme_datacenter() -> Self {
        SsdConfig {
            channels: 8,
            chips_per_channel: 4,
            flash_page_bytes: 16 * 1024,
            read_latency_ns: 70_000.0,
            program_latency_ns: 600_000.0,
            controller_latency_ns: 3_000.0,
            transfer_latency_ns: 2_000.0,
            request_spacing_ns: 1_000.0,
        }
    }

    /// Total number of flash chips.
    pub fn total_chips(&self) -> usize {
        self.channels * self.chips_per_channel
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::nvme_datacenter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datacenter_config_is_sane() {
        let cfg = SsdConfig::nvme_datacenter();
        assert!(cfg.total_chips() > 0);
        assert!(cfg.program_latency_ns > cfg.read_latency_ns);
        assert!(cfg.flash_page_bytes >= 4096);
    }

    #[test]
    fn default_is_datacenter() {
        assert_eq!(SsdConfig::default(), SsdConfig::nvme_datacenter());
    }
}
