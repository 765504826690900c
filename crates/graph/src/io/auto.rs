//! Format auto-detection over the text/binary/METIS readers.
//!
//! One loader for "a graph file the user pointed at": `.metis` / `.graph`
//! extensions dispatch to the METIS reader (their content is ambiguous
//! with plain edge lists), anything else is sniffed — files starting with
//! the binary magic `BESTKGR1` read as binary CSR, the rest as a
//! SNAP-style text edge list (sparse ids relabeled densely).

use std::io::Read;
use std::path::Path;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::Result;

use super::{read_binary, read_edge_list, read_metis_path};

/// Loads a graph from `path`, auto-detecting the format.
pub fn read_auto_path<P: AsRef<Path>>(path: P) -> Result<CsrGraph> {
    let p = path.as_ref();
    let is_metis = p.extension().is_some_and(|e| e == "metis" || e == "graph");
    if is_metis {
        return read_metis_path(p);
    }
    let mut file = std::fs::File::open(p).map_err(GraphError::Io)?;
    let mut magic = [0u8; 8];
    let read = read_up_to(&mut file, &mut magic)?;
    // The chosen reader sees the sniffed bytes first, then the rest of the
    // same open file.
    let stream = (&magic[..read]).chain(file);
    if &magic[..read] == b"BESTKGR1" {
        read_binary(stream)
    } else {
        let (g, _) = read_edge_list(stream)?;
        Ok(g)
    }
}

fn read_up_to(r: &mut impl Read, buf: &mut [u8]) -> Result<usize> {
    let mut total = 0;
    while total < buf.len() {
        let n = r.read(&mut buf[total..]).map_err(GraphError::Io)?;
        if n == 0 {
            break;
        }
        total += n;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::io::{write_binary_path, write_edge_list_path, write_metis_path};

    fn triangle() -> CsrGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0, 1), (1, 2), (2, 0)]);
        b.build()
    }

    #[test]
    fn detects_text_binary_and_metis() {
        let g = triangle();
        let dir = std::env::temp_dir().join(format!("bestk-io-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("g.txt");
        let bin = dir.join("g.bin");
        let metis = dir.join("g.metis");
        write_edge_list_path(&g, &text).unwrap();
        write_binary_path(&g, &bin).unwrap();
        write_metis_path(&g, &metis).unwrap();
        assert_eq!(read_auto_path(&text).unwrap().num_edges(), 3);
        assert_eq!(read_auto_path(&bin).unwrap(), g);
        assert_eq!(read_auto_path(&metis).unwrap().num_edges(), 3);
        for f in [text, bin, metis] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_auto_path("/nonexistent/definitely-not-here.txt"),
            Err(GraphError::Io(_))
        ));
    }
}
