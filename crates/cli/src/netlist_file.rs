//! Format-dispatching netlist reading and writing (`.fhg` / `.hgr`).

use std::fs::File;
use std::path::Path;

use fpart_hypergraph::{Hypergraph, ParseLimits};

/// Reads a netlist with default resource limits, choosing the parser by
/// file extension (see [`fpart_hypergraph::io::read_netlist_path`]).
///
/// # Errors
///
/// Returns a human-readable message on I/O or parse failure.
pub fn read(path: &Path) -> Result<Hypergraph, String> {
    fpart_hypergraph::io::read_netlist_path(path, &ParseLimits::default())
}

/// Writes a netlist, choosing the format by file extension.
///
/// # Errors
///
/// Returns a human-readable message on I/O failure.
pub fn write(path: &Path, graph: &Hypergraph) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let is_hgr = path.extension().is_some_and(|e| e.eq_ignore_ascii_case("hgr"));
    let result = if is_hgr {
        fpart_hypergraph::hmetis::write_hmetis(file, graph)
    } else {
        fpart_hypergraph::io::write_netlist(file, graph)
    };
    result.map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpart_hypergraph::gen::{window_circuit, WindowConfig};

    #[test]
    fn roundtrips_both_formats() {
        let dir = std::env::temp_dir().join("fpart_cli_netlist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = window_circuit(&WindowConfig::new("t", 40, 4), 1);

        let fhg = dir.join("t.fhg");
        write(&fhg, &g).unwrap();
        let back = read(&fhg).unwrap();
        assert_eq!(back.node_count(), 40);
        assert_eq!(back.terminal_count(), 4);

        let hgr = dir.join("t.hgr");
        write(&hgr, &g).unwrap();
        let back = read(&hgr).unwrap();
        assert_eq!(back.node_count(), 40);
        assert_eq!(back.terminal_count(), 0); // dropped by the format
    }

    #[test]
    fn missing_file_is_reported() {
        let err = read(Path::new("/nonexistent/zzz.fhg")).unwrap_err();
        assert!(err.contains("cannot open"));
    }
}
