#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Network applications written as DELPs, with deployment helpers.
//!
//! * [`forwarding`] — the paper's running example (Figure 1): tuple
//!   constructors and shortest-path route installation (the paper
//!   pre-computes routes with a declarative routing protocol; we install
//!   the same shortest paths directly).
//! * [`dns`] — recursive DNS resolution (Figure 19): builds the nameserver
//!   hierarchy over a tree topology, installs delegations and address
//!   records, and registers `f_isSubDomain`.
//! * [`firewall`] — forwarding with per-hop ACL admission: rules joining
//!   two slow-changing relations.
//! * [`dhcp`] — a DHCP-style address-assignment DELP.
//! * [`arp`] — an ARP-style resolution DELP.

pub mod arp;
pub mod dhcp;
pub mod dns;
pub mod firewall;
pub mod forwarding;
