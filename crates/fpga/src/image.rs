//! Configuration images.
//!
//! Each board's flash holds a *golden* image loaded at power-on — by policy
//! rarely overwritten, so power-cycling through the management port always
//! recovers a reachable server — plus one application image. Applications
//! can be swapped by full reconfiguration (the network bridge blips) or by
//! partial reconfiguration of the role region (traffic keeps flowing).

/// A configuration bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Image {
    /// Human-readable image name.
    pub name: &'static str,
    /// Name of the role compiled into the image ("bypass" for golden).
    pub role: &'static str,
    /// Whether the image carries a working NIC<->TOR bridge; an image
    /// without one cuts its server off the network.
    pub bridge: bool,
}

impl Image {
    /// The known-good golden image: bridge-only bypass logic.
    pub fn golden() -> Image {
        Image {
            name: "golden",
            role: "bypass",
            bridge: true,
        }
    }

    /// An application image: `role` behind a working bridge.
    pub fn application(name: &'static str, role: &'static str) -> Image {
        Image {
            name,
            role,
            bridge: true,
        }
    }
}
