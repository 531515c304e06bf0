//! Registration of the codec's native-kernel inventory (the paper's
//! Table I "Loader" rows), with vendor-specific variants.

use lotus_uarch::{CostCoeffs, KernelId, Machine, Vendor};

/// Library name constants matching Table I of the paper.
pub mod libs {
    /// libjpeg 9e.
    pub const LIBJPEG: &str = "libjpeg.so.9";
    /// glibc.
    pub const LIBC: &str = "libc.so.6";
    /// glibc as named on the paper's AMD machine.
    pub const LIBC_AMD: &str = "libc-2.31.so";
    /// Pillow's native extension module (`#` in Table I).
    pub const PILLOW: &str = "_imaging.cpython-310-x86_64-linux-gnu.so";
}

/// Kernel ids for the decode (Loader) and encode paths.
///
/// Intel and AMD machines resolve slightly different inventories, exactly
/// as the paper's Table I records: e.g. `__libc_calloc` shows up on Intel
/// while AMD surfaces Pillow's `copy`, `process_data_simple_main` and
/// `sep_upsample`.
#[derive(Debug, Clone, Copy)]
pub struct CodecKernels {
    /// Entropy decode of MCU coefficients (`decode_mcu`).
    pub decode_mcu: KernelId,
    /// Bit-buffer refill (`jpeg_fill_bit_buffer`).
    pub fill_bit_buffer: KernelId,
    /// Luma inverse DCT (`jpeg_idct_islow`).
    pub idct_islow: KernelId,
    /// Chroma/scaled inverse DCT (`jpeg_idct_16x16`).
    pub idct_16x16: KernelId,
    /// YCbCr → RGB (`ycc_rgb_convert`).
    pub ycc_rgb_convert: KernelId,
    /// Decompression driver: `decompress_onepass` on Intel,
    /// `process_data_simple_main` on AMD.
    pub decompress_driver: KernelId,
    /// Chroma upsampling (`sep_upsample`; surfaced on AMD, merged into the
    /// driver on Intel).
    pub sep_upsample: Option<KernelId>,
    /// Pillow's RGB unpack (`ImagingUnpackRGB`).
    pub unpack_rgb: KernelId,
    /// Output allocation: `__libc_calloc` (Intel) or Pillow `copy` (AMD).
    pub alloc_output: KernelId,
    /// Bulk zeroing (`__memset_avx2_unaligned_erms` / `_avx2_unaligned`).
    pub memset: KernelId,
    /// Bulk copy (`__memcpy_avx_unaligned_erms`).
    pub memcpy: KernelId,
    /// Forward color conversion (`rgb_ycc_convert`, encode path).
    pub rgb_ycc_convert: KernelId,
    /// Forward DCT (`jpeg_fdct_islow`, encode path).
    pub fdct_islow: KernelId,
    /// Entropy encode (`encode_mcu_huff`, encode path).
    pub encode_mcu: KernelId,
}

impl CodecKernels {
    /// Registers the inventory on `machine`, resolving vendor variants.
    #[must_use]
    pub fn register(machine: &Machine) -> CodecKernels {
        let vendor = machine.config().vendor;
        // Entropy decode: branchy, table-driven, large code footprint —
        // strongly front-end sensitive (the paper's most CPU-hungry
        // function).
        let decode_mcu = machine.kernel(
            "decode_mcu",
            libs::LIBJPEG,
            CostCoeffs {
                base_insts: 400.0,
                insts_per_unit: 60.0, // per encoded byte
                uops_per_inst: 1.2,
                ipc_base: 1.6,
                l1_miss_per_unit: 0.06,
                l2_miss_per_unit: 0.012,
                llc_miss_per_unit: 0.003,
                branches_per_unit: 14.0,
                mispredict_rate: 0.06,
                frontend_sensitivity: 0.9,
            },
        );
        let fill_bit_buffer = machine.kernel(
            "jpeg_fill_bit_buffer",
            libs::LIBJPEG,
            CostCoeffs {
                base_insts: 80.0,
                insts_per_unit: 9.0, // per encoded byte
                uops_per_inst: 1.1,
                ipc_base: 2.2,
                l1_miss_per_unit: 1.0 / 64.0,
                l2_miss_per_unit: 0.004,
                llc_miss_per_unit: 0.002,
                branches_per_unit: 2.0,
                mispredict_rate: 0.02,
                frontend_sensitivity: 0.5,
            },
        );
        let idct = CostCoeffs {
            base_insts: 300.0,
            insts_per_unit: 14.0, // per coefficient sample
            uops_per_inst: 1.15,
            ipc_base: 2.8,
            l1_miss_per_unit: 0.01,
            l2_miss_per_unit: 0.002,
            llc_miss_per_unit: 0.0005,
            branches_per_unit: 0.3,
            mispredict_rate: 0.01,
            frontend_sensitivity: 0.35,
        };
        let idct_islow = machine.kernel("jpeg_idct_islow", libs::LIBJPEG, idct);
        let idct_16x16 = machine.kernel("jpeg_idct_16x16", libs::LIBJPEG, idct);
        let ycc_rgb_convert = machine.kernel(
            "ycc_rgb_convert",
            libs::LIBJPEG,
            CostCoeffs {
                base_insts: 120.0,
                insts_per_unit: 9.0, // per pixel
                uops_per_inst: 1.1,
                ipc_base: 2.6,
                l1_miss_per_unit: 3.0 / 64.0,
                l2_miss_per_unit: 0.01,
                llc_miss_per_unit: 0.004,
                branches_per_unit: 1.0,
                mispredict_rate: 0.005,
                frontend_sensitivity: 0.2,
            },
        );
        let driver_cost = CostCoeffs {
            base_insts: 500.0,
            insts_per_unit: 3.0, // per output pixel
            uops_per_inst: 1.1,
            ipc_base: 2.2,
            l1_miss_per_unit: 0.02,
            l2_miss_per_unit: 0.004,
            llc_miss_per_unit: 0.001,
            branches_per_unit: 0.8,
            mispredict_rate: 0.02,
            frontend_sensitivity: 0.6,
        };
        let decompress_driver = match vendor {
            Vendor::Intel => machine.kernel("decompress_onepass", libs::LIBJPEG, driver_cost),
            Vendor::Amd => machine.kernel("process_data_simple_main", libs::LIBJPEG, driver_cost),
        };
        let sep_upsample = match vendor {
            Vendor::Intel => None,
            Vendor::Amd => Some(machine.kernel(
                "sep_upsample",
                libs::LIBJPEG,
                CostCoeffs {
                    base_insts: 100.0,
                    insts_per_unit: 2.5, // per chroma sample
                    uops_per_inst: 1.05,
                    ipc_base: 2.8,
                    l1_miss_per_unit: 2.0 / 64.0,
                    l2_miss_per_unit: 0.01,
                    llc_miss_per_unit: 0.004,
                    branches_per_unit: 0.3,
                    mispredict_rate: 0.005,
                    frontend_sensitivity: 0.1,
                },
            )),
        };
        let unpack_rgb = machine.kernel(
            "ImagingUnpackRGB",
            libs::PILLOW,
            CostCoeffs {
                base_insts: 150.0,
                insts_per_unit: 2.2, // per pixel
                uops_per_inst: 1.05,
                ipc_base: 2.9,
                l1_miss_per_unit: 6.0 / 64.0,
                l2_miss_per_unit: 0.05,
                llc_miss_per_unit: 0.03,
                branches_per_unit: 0.3,
                mispredict_rate: 0.004,
                frontend_sensitivity: 0.1,
            },
        );
        let alloc_output = match vendor {
            Vendor::Intel => machine.kernel(
                "__libc_calloc",
                libs::LIBC,
                CostCoeffs {
                    base_insts: 300.0,
                    insts_per_unit: 0.05, // per byte (page-touch amortized)
                    uops_per_inst: 1.1,
                    ipc_base: 2.0,
                    l1_miss_per_unit: 0.5 / 64.0,
                    l2_miss_per_unit: 0.4 / 64.0,
                    llc_miss_per_unit: 0.35 / 64.0,
                    branches_per_unit: 0.01,
                    mispredict_rate: 0.01,
                    frontend_sensitivity: 0.15,
                },
            ),
            Vendor::Amd => machine.kernel(
                "copy",
                libs::PILLOW,
                CostCoeffs {
                    base_insts: 250.0,
                    insts_per_unit: 0.3,
                    uops_per_inst: 1.05,
                    ipc_base: 2.6,
                    l1_miss_per_unit: 1.0 / 64.0,
                    l2_miss_per_unit: 0.8 / 64.0,
                    llc_miss_per_unit: 0.7 / 64.0,
                    branches_per_unit: 0.02,
                    mispredict_rate: 0.005,
                    frontend_sensitivity: 0.05,
                },
            ),
        };
        let memset_name = match vendor {
            Vendor::Intel => "__memset_avx2_unaligned_erms",
            Vendor::Amd => "__memset_avx2_unaligned",
        };
        let libc_name = match vendor {
            Vendor::Intel => libs::LIBC,
            Vendor::Amd => libs::LIBC_AMD,
        };
        let memset = machine.kernel(memset_name, libc_name, CostCoeffs::streaming_default());
        let memcpy = machine.kernel(
            "__memcpy_avx_unaligned_erms",
            libc_name,
            CostCoeffs::streaming_default(),
        );
        let rgb_ycc_convert = machine.kernel(
            "rgb_ycc_convert",
            libs::LIBJPEG,
            CostCoeffs {
                base_insts: 120.0,
                insts_per_unit: 10.0,
                uops_per_inst: 1.1,
                ipc_base: 2.6,
                l1_miss_per_unit: 3.0 / 64.0,
                l2_miss_per_unit: 0.01,
                llc_miss_per_unit: 0.004,
                branches_per_unit: 1.0,
                mispredict_rate: 0.005,
                frontend_sensitivity: 0.2,
            },
        );
        let fdct_islow = machine.kernel("jpeg_fdct_islow", libs::LIBJPEG, idct);
        let encode_mcu = machine.kernel(
            "encode_mcu_huff",
            libs::LIBJPEG,
            CostCoeffs {
                base_insts: 300.0,
                insts_per_unit: 40.0,
                uops_per_inst: 1.2,
                ipc_base: 1.8,
                l1_miss_per_unit: 0.04,
                l2_miss_per_unit: 0.008,
                llc_miss_per_unit: 0.002,
                branches_per_unit: 10.0,
                mispredict_rate: 0.05,
                frontend_sensitivity: 0.8,
            },
        );
        CodecKernels {
            decode_mcu,
            fill_bit_buffer,
            idct_islow,
            idct_16x16,
            ycc_rgb_convert,
            decompress_driver,
            sep_upsample,
            unpack_rgb,
            alloc_output,
            memset,
            memcpy,
            rgb_ycc_convert,
            fdct_islow,
            encode_mcu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_uarch::MachineConfig;

    #[test]
    fn intel_inventory_matches_table_1() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let k = CodecKernels::register(&machine);
        assert!(machine.kernel_by_name("decompress_onepass").is_some());
        assert!(machine.kernel_by_name("__libc_calloc").is_some());
        assert!(machine.kernel_by_name("process_data_simple_main").is_none());
        assert!(k.sep_upsample.is_none());
        assert_eq!(
            machine.kernel_spec(k.memset).name,
            "__memset_avx2_unaligned_erms"
        );
    }

    #[test]
    fn amd_inventory_matches_table_1() {
        let machine = Machine::new(MachineConfig::amd_rome());
        let k = CodecKernels::register(&machine);
        assert!(machine.kernel_by_name("process_data_simple_main").is_some());
        assert!(machine.kernel_by_name("sep_upsample").is_some());
        assert!(machine.kernel_by_name("__libc_calloc").is_none());
        assert_eq!(machine.kernel_spec(k.alloc_output).name, "copy");
        assert_eq!(
            machine.kernel_spec(k.memset).name,
            "__memset_avx2_unaligned"
        );
        assert_eq!(machine.kernel_spec(k.memset).library, libs::LIBC_AMD);
    }

    #[test]
    fn kernel_cost_is_the_spec_cost_of_every_codec_kernel() {
        for config in [MachineConfig::cloudlab_c4130(), MachineConfig::amd_rome()] {
            let machine = Machine::new(config);
            let k = CodecKernels::register(&machine);
            let ids: Vec<KernelId> = [
                k.decode_mcu,
                k.fill_bit_buffer,
                k.idct_islow,
                k.idct_16x16,
                k.ycc_rgb_convert,
                k.decompress_driver,
                k.unpack_rgb,
                k.alloc_output,
                k.memset,
                k.memcpy,
                k.rgb_ycc_convert,
                k.fdct_islow,
                k.encode_mcu,
            ]
            .into_iter()
            .chain(k.sep_upsample)
            .collect();
            assert_eq!(ids.len(), machine.kernel_count(), "every registered kernel");
            for id in ids {
                assert_eq!(machine.kernel_cost(id), machine.kernel_spec(id).cost);
            }
        }
    }

    #[test]
    fn registration_is_stable_across_calls() {
        let machine = Machine::new(MachineConfig::cloudlab_c4130());
        let a = CodecKernels::register(&machine);
        let b = CodecKernels::register(&machine);
        assert_eq!(a.decode_mcu, b.decode_mcu);
        assert_eq!(a.memcpy, b.memcpy);
    }
}
