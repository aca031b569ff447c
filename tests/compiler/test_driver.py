"""Compiler driver: flag parsing and the pipeline-stage taxonomy."""

import pytest

from repro.compiler import classify_flags, get_target
from repro.compiler.driver import CompileOptions, DriverError


class TestClassifyFlags:
    def test_frontend_flags(self):
        cls = classify_flags(["-DGMX_MPI", "-UOLD", "-Iinclude", "-fopenmp"])
        assert set(cls.frontend) == {"-DGMX_MPI", "-UOLD", "-Iinclude", "-fopenmp"}
        assert cls.target == () and cls.opt == ()

    def test_separate_include_argument(self):
        cls = classify_flags(["-I", "/xaas/build/include"])
        assert cls.frontend == ("-I/xaas/build/include",)

    def test_target_flags(self):
        cls = classify_flags(["-msimd=AVX_512", "--target=aarch64", "-march=native"])
        assert len(cls.target) == 3
        assert cls.frontend == ()

    def test_opt_flags(self):
        cls = classify_flags(["-O3", "-O0"])
        assert cls.opt == ("-O3", "-O0")

    def test_other_flags_with_arguments(self):
        cls = classify_flags(["-c", "-o", "out.o", "-Wall"])
        assert "-o" in cls.other and "-Wall" in cls.other
        assert "out.o" not in cls.other  # consumed as -o's argument

    def test_dangling_include_raises(self):
        with pytest.raises(DriverError, match="-I requires"):
            classify_flags(["-I"])

    def test_mixed_realistic_command(self):
        flags = ["-O3", "-DGMX_MPI", "-fopenmp", "-msimd=AVX2_256",
                 "-I/xaas/build/include", "-c"]
        cls = classify_flags(flags)
        assert set(cls.frontend) == {"-DGMX_MPI", "-fopenmp", "-I/xaas/build/include"}
        assert cls.target == ("-msimd=AVX2_256",)
        assert cls.opt == ("-O3",)


class TestCompileOptions:
    def test_define_with_value(self):
        opts = CompileOptions.from_flags(["-DGMX_SIMD_LEVEL=6", "-DFLAG"])
        assert opts.defines == {"GMX_SIMD_LEVEL": "6", "FLAG": None}

    def test_undef_removes(self):
        opts = CompileOptions.from_flags(["-DX=1", "-UX"])
        assert "X" not in opts.defines

    def test_opt_levels(self):
        assert CompileOptions.from_flags(["-O0"]).opt_level == 0
        assert CompileOptions.from_flags(["-O3"]).opt_level == 3
        assert CompileOptions.from_flags(["-Ofast"]).opt_level == 3
        assert CompileOptions.from_flags(["-Os"]).opt_level == 2

    def test_simd_resolution(self):
        opts = CompileOptions.from_flags(["-msimd=AVX_512"])
        assert opts.resolve_target() is get_target("AVX_512")

    def test_default_target_scalar(self):
        opts = CompileOptions.from_flags([])
        target = opts.resolve_target()
        assert target.vector_bits == 0 and target.family == "x86_64"

    def test_aarch64_default(self):
        opts = CompileOptions.from_flags(["--target=aarch64"])
        assert opts.resolve_target().family == "aarch64"

    def test_fopenmp_defines_openmp_macro(self):
        from repro.compiler import Compiler
        pre = Compiler().preprocess("#ifdef _OPENMP\nint omp;\n#endif\n", ["-fopenmp"])
        assert "int omp;" in pre.text
        pre2 = Compiler().preprocess("#ifdef _OPENMP\nint omp;\n#endif\n", [])
        assert "int omp;" not in pre2.text

    def test_include_dirs_collected_in_order(self):
        opts = CompileOptions.from_flags(["-Ia", "-I", "b", "-Ic"])
        assert opts.include_dirs == ["a", "b", "c"]


class TestIRCacheIdentity:
    """``compile_to_ir_cached`` keys an IR by the preprocessed text's
    digest, whoever did the preprocessing."""

    SOURCE = ("#include \"scale.h\"\n"
              "double f(double* x, int n) { double s = 0.0;\n"
              "for (int i = 0; i < n; i++) { s = s + SCALE * x[i]; }\n"
              "return s; }\n")
    FLAGS = ["-DUNUSED=1", "-fopenmp"]

    def _compile(self, cache, **kwargs):
        from repro.compiler import Compiler
        from repro.compiler.driver import compile_to_ir_cached, make_resolver
        compiler = Compiler(make_resolver({"scale.h": "#define SCALE 2.0\n"}))
        return compiler, compile_to_ir_cached(
            compiler, self.SOURCE, self.FLAGS, "f.c", cache=cache, **kwargs)

    def test_same_key_payload_and_module_with_and_without_stored_text(self):
        from repro.containers import ArtifactCache
        from repro.util.hashing import content_digest

        plain = ArtifactCache()
        compiler, (text, module, fresh) = self._compile(plain)
        assert fresh

        stored = ArtifactCache()
        pre = compiler.preprocess(self.SOURCE, self.FLAGS, "f.c").text
        assert stored.store.put(pre) == content_digest(pre)
        # A text digest whose blob is absent falls back to the source too.
        missing = ArtifactCache()
        for cache in (stored, missing):
            _, (other_text, other_module, other_fresh) = self._compile(
                cache, text_digest=content_digest(pre))
            assert other_fresh and other_text == text
            assert other_module.render() == module.render()
            assert set(cache.entries()) == set(plain.entries())
            assert [e.digest for e in cache.entries().values()] == \
                [e.digest for e in plain.entries().values()]

        # Either spelling hits what the other published.
        _, (hit_text, hit_module, hit_fresh) = self._compile(stored)
        assert not hit_fresh and hit_text == text
        assert hit_module is stored.get(
            "ir", {"pp": content_digest(pre), "name": "f.c",
                   "fe": sorted(self.FLAGS)}).obj

    def test_compile_preprocessed_is_compile_to_ir_minus_preprocessing(self):
        from repro.compiler import Compiler
        from repro.compiler.driver import make_resolver
        compiler = Compiler(make_resolver({"scale.h": "#define SCALE 2.0\n"}))
        whole = compiler.compile_to_ir(self.SOURCE, self.FLAGS, "f.c")
        module, uses_openmp = Compiler().compile_preprocessed(
            whole.preprocessed.text, self.FLAGS, "f.c")
        assert module.render() == whole.module.render()
        assert uses_openmp == whole.uses_openmp
