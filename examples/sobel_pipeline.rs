//! The paper's Figures 1 and 3 as images: Sobel under significance-driven
//! approximation (GTB Max-Buffer at Mild / Medium / Aggressive) and under
//! loop perforation (20 % / 70 % / 100 % of the rows dropped).
//!
//! Writes `fig1_sobel.pgm` and `fig3_sobel_perforation.pgm` (accurate output
//! in the upper-left quadrant of each) into the current directory and prints
//! each quadrant's PSNR. `replay paper` pins both figures at 96x64 pixels.
//!
//! Run with `cargo run --release --example sobel_pipeline`.

use sig_bench::replay::{fig1, fig3};
use significance_repro::kernels::sobel::Sobel;

fn main() {
    let sobel = Sobel::default();
    let significance = fig1::generate(&sobel);
    let perforation = fig3::generate(&sobel);
    for (image, path) in [
        (&significance.image, "fig1_sobel.pgm"),
        (&perforation.image, "fig3_sobel_perforation.pgm"),
    ] {
        image
            .save_pgm(path)
            .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
        println!("wrote {path}");
    }
    for (degree, psnr) in significance.psnr_db {
        println!(
            "significance {:<10} PSNR {psnr:>6.2} dB",
            format!("{degree:?}")
        );
    }
    for (dropped, psnr) in perforation.levels {
        println!(
            "perforation  {:<10} PSNR {psnr:>6.2} dB",
            format!("{dropped}%")
        );
    }
    // Figure 1 vs Figure 3 at comparable work: approximating the other 70 %
    // of the rows beats dropping them.
    assert!(significance.psnr_db[1].1 > perforation.levels[1].1);
}
