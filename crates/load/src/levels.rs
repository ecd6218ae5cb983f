//! H.264/AVC level limits (ITU-T Rec. H.264 Table A-1) and the paper's five
//! HD-compatible operating points.
//!
//! The paper evaluates levels 3.1, 3.2, 4, 4.2 and 5.2 — the levels whose
//! throughput limits admit 720p30, 720p60, 1080p30, 1080p60 and 2160p30
//! recording. The full level table is implemented so arbitrary operating
//! points can be validated.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::error::LoadError;
use crate::formats::FrameFormat;

/// An H.264/AVC level identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum H264Level {
    L1,
    L1_1,
    L1_2,
    L1_3,
    L2,
    L2_1,
    L2_2,
    L3,
    L3_1,
    L3_2,
    L4,
    L4_1,
    L4_2,
    L5,
    L5_1,
    L5_2,
}

/// The limit row of one level from H.264 Table A-1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelLimits {
    /// Maximum macroblock processing rate, MB/s.
    pub max_mbps: u64,
    /// Maximum frame size, MBs.
    pub max_fs: u64,
    /// Maximum decoded picture buffer size, MBs.
    pub max_dpb_mbs: u64,
    /// Maximum video bitrate (Baseline/Extended/Main), kbit/s.
    pub max_br_kbps: u64,
}

impl H264Level {
    /// All levels, ascending.
    pub const ALL: [H264Level; 16] = [
        H264Level::L1,
        H264Level::L1_1,
        H264Level::L1_2,
        H264Level::L1_3,
        H264Level::L2,
        H264Level::L2_1,
        H264Level::L2_2,
        H264Level::L3,
        H264Level::L3_1,
        H264Level::L3_2,
        H264Level::L4,
        H264Level::L4_1,
        H264Level::L4_2,
        H264Level::L5,
        H264Level::L5_1,
        H264Level::L5_2,
    ];

    /// The limits of this level (H.264 Table A-1).
    pub fn limits(self) -> LevelLimits {
        use H264Level::*;
        let (max_mbps, max_fs, max_dpb_mbs, max_br_kbps) = match self {
            L1 => (1_485, 99, 396, 64),
            L1_1 => (3_000, 396, 900, 192),
            L1_2 => (6_000, 396, 2_376, 384),
            L1_3 => (11_880, 396, 2_376, 768),
            L2 => (11_880, 396, 2_376, 2_000),
            L2_1 => (19_800, 792, 4_752, 4_000),
            L2_2 => (20_250, 1_620, 8_100, 4_000),
            L3 => (40_500, 1_620, 8_100, 10_000),
            L3_1 => (108_000, 3_600, 18_000, 14_000),
            L3_2 => (216_000, 5_120, 20_480, 20_000),
            L4 => (245_760, 8_192, 32_768, 20_000),
            L4_1 => (245_760, 8_192, 32_768, 50_000),
            L4_2 => (522_240, 8_704, 34_816, 50_000),
            L5 => (589_824, 22_080, 110_400, 135_000),
            L5_1 => (983_040, 36_864, 184_320, 240_000),
            L5_2 => (2_073_600, 36_864, 184_320, 240_000),
        };
        LevelLimits {
            max_mbps,
            max_fs,
            max_dpb_mbs,
            max_br_kbps,
        }
    }

    /// Whether `format` at `fps` fits within this level's frame-size and
    /// throughput limits.
    pub fn supports(self, format: FrameFormat, fps: u32) -> bool {
        let l = self.limits();
        let mbs = format.macroblocks();
        mbs <= l.max_fs && mbs * fps as u64 <= l.max_mbps
    }

    /// The smallest level that supports `format` at `fps`.
    pub fn minimum_for(format: FrameFormat, fps: u32) -> Result<H264Level, LoadError> {
        Self::ALL
            .iter()
            .copied()
            .find(|l| l.supports(format, fps))
            .ok_or(LoadError::NoLevelSupports {
                width: format.width,
                height: format.height,
                fps,
            })
    }

    /// Maximum number of reference frames the decoded picture buffer can
    /// hold for `format` (capped at 16 per the standard).
    pub fn max_ref_frames(self, format: FrameFormat) -> u32 {
        let by_dpb = self.limits().max_dpb_mbs / format.macroblocks().max(1);
        by_dpb.min(16) as u32
    }
}

impl fmt::Display for H264Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use H264Level::*;
        let s = match self {
            L1 => "1",
            L1_1 => "1.1",
            L1_2 => "1.2",
            L1_3 => "1.3",
            L2 => "2",
            L2_1 => "2.1",
            L2_2 => "2.2",
            L3 => "3",
            L3_1 => "3.1",
            L3_2 => "3.2",
            L4 => "4",
            L4_1 => "4.1",
            L4_2 => "4.2",
            L5 => "5",
            L5_1 => "5.1",
            L5_2 => "5.2",
        };
        write!(f, "{s}")
    }
}

/// One of the paper's five HD-compatible recording operating points
/// (the columns of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HdOperatingPoint {
    /// Level 3.1: 1280×720 @ 30 fps.
    Hd720p30,
    /// Level 3.2: 1280×720 @ 60 fps.
    Hd720p60,
    /// Level 4: 1920×1088 @ 30 fps.
    Hd1080p30,
    /// Level 4.2: 1920×1088 @ 60 fps.
    Hd1080p60,
    /// Level 5.2 (as labelled by the paper): 3840×2160 @ 30 fps.
    Uhd2160p30,
}

impl HdOperatingPoint {
    /// All five points in Table I column order.
    pub const ALL: [HdOperatingPoint; 5] = [
        HdOperatingPoint::Hd720p30,
        HdOperatingPoint::Hd720p60,
        HdOperatingPoint::Hd1080p30,
        HdOperatingPoint::Hd1080p60,
        HdOperatingPoint::Uhd2160p30,
    ];

    /// The H.264 level the paper assigns to this point.
    pub fn level(self) -> H264Level {
        match self {
            HdOperatingPoint::Hd720p30 => H264Level::L3_1,
            HdOperatingPoint::Hd720p60 => H264Level::L3_2,
            HdOperatingPoint::Hd1080p30 => H264Level::L4,
            HdOperatingPoint::Hd1080p60 => H264Level::L4_2,
            HdOperatingPoint::Uhd2160p30 => H264Level::L5_2,
        }
    }

    /// Frame format.
    pub fn format(self) -> FrameFormat {
        match self {
            HdOperatingPoint::Hd720p30 | HdOperatingPoint::Hd720p60 => FrameFormat::HD_720,
            HdOperatingPoint::Hd1080p30 | HdOperatingPoint::Hd1080p60 => FrameFormat::HD_1080,
            HdOperatingPoint::Uhd2160p30 => FrameFormat::UHD_2160,
        }
    }

    /// Frame rate, fps.
    pub fn fps(self) -> u32 {
        match self {
            HdOperatingPoint::Hd720p60 | HdOperatingPoint::Hd1080p60 => 60,
            _ => 30,
        }
    }

    /// Real-time budget for one frame.
    pub fn frame_budget(self) -> mcm_sim::SimTime {
        mcm_sim::SimTime::from_ps(1_000_000_000_000u64 / self.fps() as u64)
    }

    /// Parses an operating-point name: `720p30`, `720p60`, `1080p30`,
    /// `1080p60` or `2160p30`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcm_load::HdOperatingPoint;
    ///
    /// assert_eq!(HdOperatingPoint::parse("1080p60").unwrap(), HdOperatingPoint::Hd1080p60);
    /// let e = HdOperatingPoint::parse("480p").unwrap_err();
    /// assert!(e.to_string().contains("`480p`"));
    /// ```
    pub fn parse(s: &str) -> Result<HdOperatingPoint, LoadError> {
        match s {
            "720p30" => Ok(HdOperatingPoint::Hd720p30),
            "720p60" => Ok(HdOperatingPoint::Hd720p60),
            "1080p30" => Ok(HdOperatingPoint::Hd1080p30),
            "1080p60" => Ok(HdOperatingPoint::Hd1080p60),
            "2160p30" => Ok(HdOperatingPoint::Uhd2160p30),
            _ => Err(LoadError::BadParam {
                reason: format!(
                    "unknown format `{s}` (expected 720p30, 720p60, 1080p30, 1080p60 or 2160p30)"
                ),
            }),
        }
    }
}

impl fmt::Display for HdOperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{} (L{})", self.format(), self.fps(), self.level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_points_fit_their_levels() {
        for p in HdOperatingPoint::ALL {
            // The paper's 2160p30 label (5.2) is one level above the strict
            // minimum (5.1); all others are exact.
            assert!(
                p.level().supports(p.format(), p.fps()),
                "{p} does not fit its level"
            );
        }
    }

    #[test]
    fn minimum_levels_match_h264_arithmetic() {
        assert_eq!(
            H264Level::minimum_for(FrameFormat::HD_720, 30).unwrap(),
            H264Level::L3_1
        );
        assert_eq!(
            H264Level::minimum_for(FrameFormat::HD_720, 60).unwrap(),
            H264Level::L3_2
        );
        assert_eq!(
            H264Level::minimum_for(FrameFormat::HD_1080, 30).unwrap(),
            H264Level::L4
        );
        assert_eq!(
            H264Level::minimum_for(FrameFormat::HD_1080, 60).unwrap(),
            H264Level::L4_2
        );
        assert_eq!(
            H264Level::minimum_for(FrameFormat::UHD_2160, 30).unwrap(),
            H264Level::L5_1
        );
    }

    #[test]
    fn impossible_format_has_no_level() {
        let huge = FrameFormat::new(16_384, 16_384).unwrap();
        assert!(matches!(
            H264Level::minimum_for(huge, 120),
            Err(LoadError::NoLevelSupports { .. })
        ));
    }

    #[test]
    fn dpb_reference_frames() {
        assert_eq!(H264Level::L3_1.max_ref_frames(FrameFormat::HD_720), 5);
        assert_eq!(H264Level::L4.max_ref_frames(FrameFormat::HD_1080), 4);
        assert_eq!(H264Level::L4_2.max_ref_frames(FrameFormat::HD_1080), 4);
        assert_eq!(H264Level::L5_2.max_ref_frames(FrameFormat::UHD_2160), 5);
        // The 16-frame standard cap binds for tiny formats.
        let qcif = FrameFormat::new(176, 144).unwrap();
        assert_eq!(H264Level::L5_2.max_ref_frames(qcif), 16);
    }

    #[test]
    fn bitrates_match_table_a1() {
        assert_eq!(H264Level::L3_1.limits().max_br_kbps, 14_000);
        assert_eq!(H264Level::L3_2.limits().max_br_kbps, 20_000);
        assert_eq!(H264Level::L4.limits().max_br_kbps, 20_000);
        assert_eq!(H264Level::L4_2.limits().max_br_kbps, 50_000);
        assert_eq!(H264Level::L5_2.limits().max_br_kbps, 240_000);
    }

    #[test]
    fn operating_point_metadata() {
        let p = HdOperatingPoint::Hd1080p60;
        assert_eq!(p.fps(), 60);
        assert_eq!(p.format(), FrameFormat::HD_1080);
        assert_eq!(p.level(), H264Level::L4_2);
        assert!((p.frame_budget().as_ms_f64() - 1000.0 / 60.0).abs() < 1e-6);
        assert_eq!(p.to_string(), "1920x1088@60 (L4.2)");
    }

    #[test]
    fn levels_are_ordered_and_monotone_in_throughput() {
        let mut prev = 0;
        for l in H264Level::ALL {
            let mbps = l.limits().max_mbps;
            assert!(mbps >= prev, "level {l} throughput went backwards");
            prev = mbps;
        }
    }
}
