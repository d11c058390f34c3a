from setuptools import Extension, setup

# The compiled campaign kernel is optional: without a C compiler the package
# installs pure-Python only and selects the reference kernel at import time.
# -ffp-contract=off: no FMA contraction, so the compiled kernel stays
# bit-identical to the pure-Python one.  The flag also covers the AVX-512
# clone of the campaign loop that _ckernel.c asks for with target_clones on
# x86-64 GCC; the CPU picks the clone at load time, so no flag selects it.
setup(
    ext_modules=[
        Extension(
            "confound_kit._ckernel",
            ["src/confound_kit/_ckernel.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ]
)
