"""Build-system substrate: parser, interpreter, compile-commands generation."""

import pytest

from repro.apps import APP_MODELS, app_model
from repro.buildsys import (
    BuildEnvironment,
    BuildScriptError,
    Command,
    ConfigureError,
    SourceTree,
    configure,
    declared_options,
    is_truthy,
    make_include_resolver,
    parse_script,
)


def make_tree(script, extra=None):
    files = {"CMakeLists.txt": script, "src/a.c": "int a;", "src/b.c": "int b;"}
    files.update(extra or {})
    return SourceTree(files)


class TestParser:
    def test_simple_command(self):
        cmds = parse_script('project(demo)')
        assert cmds[0].name == "project"
        assert cmds[0].args == ("demo",)

    def test_command_names_lowercased(self):
        assert parse_script("PROJECT(x)")[0].name == "project"

    def test_quoted_argument_with_spaces(self):
        cmds = parse_script('option(FOO "a doc string" ON)')
        assert cmds[0].args == ("FOO", "a doc string", "ON")
        assert cmds[0].quoted == (False, True, False)

    def test_multiline_command(self):
        cmds = parse_script("add_library(core\n  src/a.c\n  src/b.c)")
        assert cmds[0].args == ("core", "src/a.c", "src/b.c")

    def test_comments_stripped(self):
        cmds = parse_script("# full line comment\nproject(x) # trailing\n")
        assert len(cmds) == 1

    def test_hash_inside_string_kept(self):
        cmds = parse_script('message("issue #42")')
        assert cmds[0].args == ("issue #42",)

    def test_empty_args(self):
        assert parse_script("endif()")[0].args == ()

    def test_unterminated_command_raises(self):
        with pytest.raises(BuildScriptError, match="unterminated"):
            parse_script("project(x\n")

    def test_garbage_raises(self):
        with pytest.raises(BuildScriptError, match="expected a command"):
            parse_script("this is not cmake")

    def test_line_numbers(self):
        cmds = parse_script("project(x)\n\noption(A \"d\" ON)")
        assert cmds[0].line == 1
        assert cmds[1].line == 3


def _rescanning_parse(text, filename="<script>"):
    """The continuation rule as first written: after every appended line
    the whole accumulated command is rescanned for its parenthesis
    balance. Quadratic in the command's length, and the definition the
    line-at-a-time scan in ``parse_script`` must keep agreeing with."""
    from repro.buildsys.parser import (_COMMAND_START, _parse_args,
                                       _strip_comment)

    def balance_of(buffer):
        balance, in_quote = 0, False
        for ch in buffer:
            if ch == '"':
                in_quote = not in_quote
            elif not in_quote:
                balance += {"(": 1, ")": -1}.get(ch, 0)
        return balance

    commands, lines, i = [], text.split("\n"), 0
    while i < len(lines):
        line = _strip_comment(lines[i])
        if not line.strip():
            i += 1
            continue
        m = _COMMAND_START.match(line)
        name = m.group(1).lower()
        buffer, start_line = line[m.end() - 1:], i + 1
        while balance_of(buffer) > 0:
            i += 1
            if i >= len(lines):
                raise BuildScriptError(
                    f"{filename}:{start_line}: unterminated command {name!r}")
            buffer += "\n" + _strip_comment(lines[i])
        args, quoted = _parse_args(buffer, filename, start_line)
        commands.append(Command(name, tuple(args), start_line, tuple(quoted)))
        i += 1
    return commands


class TestContinuationScan:
    """``parse_script`` carries balance and quote state across the lines
    of a multi-line command instead of rescanning it; the commands it
    yields must not have changed."""

    @pytest.mark.parametrize("app", sorted(APP_MODELS))
    def test_every_app_script_parses_as_before(self, app):
        tree = app_model(app, scale=0.1).tree
        scripts = [path for path in tree.paths()
                   if path.endswith(("CMakeLists.txt", ".cmake"))]
        assert scripts
        for path in scripts:
            text = tree.read(path)
            assert parse_script(text, path) == _rescanning_parse(text, path)

    @pytest.mark.parametrize("text", [
        'set(X "a (b"\n  c)\nproject(y)',        # paren inside a quote
        'message("two\nlines ) here" z)',         # quote open across lines
        "if((A AND B)\n   OR (C))\nendif()",      # nested, closes on line 2
        "f(a) trailing ) text\ng(b)",             # balance below zero
        "add_library(core # sources (many\n  a.c)",  # paren in a comment
    ])
    def test_tricky_commands_parse_as_before(self, text):
        assert parse_script(text) == _rescanning_parse(text)

    @pytest.mark.parametrize("text", [
        "project(x\n", "add_library(core\n  a.c\n  b.c\n",
        'set(X "never closed )\n)\n',
    ])
    def test_unterminated_command_message_unchanged(self, text):
        with pytest.raises(BuildScriptError) as old:
            _rescanning_parse(text, "CMakeLists.txt")
        with pytest.raises(BuildScriptError) as new:
            parse_script(text, "CMakeLists.txt")
        assert str(new.value) == str(old.value)
        assert "unterminated" in str(new.value)


class TestTruthiness:
    @pytest.mark.parametrize("value", ["ON", "TRUE", "1", "yes", "anything"])
    def test_truthy(self, value):
        assert is_truthy(value)

    @pytest.mark.parametrize("value", ["OFF", "FALSE", "0", "", "NOTFOUND", "CUDA-NOTFOUND", "NO"])
    def test_falsy(self, value):
        assert not is_truthy(value)


class TestVariablesAndConditions:
    def test_set_and_expand(self):
        cfg = configure(make_tree(
            'project(x)\nset(SRC src/a.c)\nadd_library(core ${SRC})\n'))
        assert cfg.targets["core"].sources == ["src/a.c"]

    def test_list_semantics_in_expansion(self):
        cfg = configure(make_tree(
            'project(x)\nset(SRCS src/a.c src/b.c)\nadd_library(core ${SRCS})\n'))
        assert cfg.targets["core"].sources == ["src/a.c", "src/b.c"]

    def test_list_append(self):
        cfg = configure(make_tree(
            'project(x)\nset(SRCS src/a.c)\nlist(APPEND SRCS src/b.c)\n'
            'add_library(core ${SRCS})\n'))
        assert cfg.targets["core"].sources == ["src/a.c", "src/b.c"]

    def test_if_option_on(self):
        script = ('project(x)\noption(USE_MPI "mpi" OFF)\nif(USE_MPI)\n'
                  'add_definitions(-DUSE_MPI)\nendif()\nadd_library(core src/a.c)\n')
        on = configure(make_tree(script), {"USE_MPI": "ON"})
        off = configure(make_tree(script), {})
        assert "-DUSE_MPI" in on.compile_commands[0].flags
        assert "-DUSE_MPI" not in off.compile_commands[0].flags

    def test_if_else(self):
        script = ('project(x)\noption(A "a" OFF)\nif(A)\nadd_definitions(-DYES)\n'
                  'else()\nadd_definitions(-DNO)\nendif()\nadd_library(c src/a.c)\n')
        assert "-DNO" in configure(make_tree(script)).compile_commands[0].flags

    def test_elseif_chain(self):
        script = ('project(x)\nset(MODE two)\nif(MODE STREQUAL "one")\n'
                  'add_definitions(-DONE)\nelseif(MODE STREQUAL "two")\n'
                  'add_definitions(-DTWO)\nelse()\nadd_definitions(-DOTHER)\n'
                  'endif()\nadd_library(c src/a.c)\n')
        assert "-DTWO" in configure(make_tree(script)).compile_commands[0].flags

    def test_nested_if(self):
        script = ('project(x)\noption(A "a" ON)\noption(B "b" ON)\nif(A)\nif(B)\n'
                  'add_definitions(-DAB)\nendif()\nendif()\nadd_library(c src/a.c)\n')
        cfg = configure(make_tree(script), {"A": "ON", "B": "ON"})
        assert "-DAB" in cfg.compile_commands[0].flags

    def test_not_and_or(self):
        script = ('project(x)\nif(NOT A AND NOT B)\nadd_definitions(-DNEITHER)\n'
                  'endif()\nadd_library(c src/a.c)\n')
        assert "-DNEITHER" in configure(make_tree(script)).compile_commands[0].flags

    def test_streq_with_variable_deref(self):
        script = ('project(x)\nset(GPU CUDA)\nif(GPU STREQUAL "CUDA")\n'
                  'add_definitions(-DCUDA)\nendif()\nadd_library(c src/a.c)\n')
        assert "-DCUDA" in configure(make_tree(script)).compile_commands[0].flags

    def test_version_comparison(self):
        script = ('project(x)\nset(V 12.4)\nif(V VERSION_GREATER_EQUAL 12.1)\n'
                  'add_definitions(-DNEW)\nendif()\nadd_library(c src/a.c)\n')
        assert "-DNEW" in configure(make_tree(script)).compile_commands[0].flags

    def test_defined(self):
        script = ('project(x)\nif(DEFINED CUSTOM)\nadd_definitions(-DHAS)\nendif()\n'
                  'add_library(c src/a.c)\n')
        assert "-DHAS" in configure(make_tree(script), {"CUSTOM": "1"}).compile_commands[0].flags
        assert "-DHAS" not in configure(make_tree(script)).compile_commands[0].flags

    def test_foreach(self):
        script = ('project(x)\nforeach(f src/a.c src/b.c)\nlist(APPEND SRCS ${f})\n'
                  'endforeach()\nadd_library(c ${SRCS})\n')
        assert configure(make_tree(script)).targets["c"].sources == ["src/a.c", "src/b.c"]

    def test_stray_endif_raises(self):
        with pytest.raises(BuildScriptError, match="stray"):
            configure(make_tree("project(x)\nendif()\n"))

    def test_missing_endif_raises(self):
        with pytest.raises(BuildScriptError, match="missing endif"):
            configure(make_tree("project(x)\nif(A)\n"))


class TestOptions:
    def test_bool_option_recorded(self):
        opts = declared_options(make_tree('project(x)\noption(USE_X "use x" ON)\n'))
        assert opts["USE_X"].kind == "bool"
        assert opts["USE_X"].default == "ON"
        assert opts["USE_X"].build_flag == "-DUSE_X"

    def test_multichoice_recorded(self):
        opts = declared_options(make_tree(
            'project(x)\ngmx_option_multichoice(SIMD "level" AUTO None AVX_512)\n'))
        assert opts["SIMD"].kind == "multichoice"
        assert opts["SIMD"].choices == ("AUTO", "None", "AVX_512")

    def test_multichoice_validates_value(self):
        tree = make_tree('project(x)\ngmx_option_multichoice(SIMD "level" AUTO None AVX_512)\n')
        with pytest.raises(ConfigureError, match="allowed choices"):
            configure(tree, {"SIMD": "BOGUS"})

    def test_option_in_untaken_branch_still_discovered(self):
        tree = make_tree('project(x)\nif(ADVANCED)\noption(HIDDEN "h" OFF)\nendif()\n')
        assert "HIDDEN" in declared_options(tree)

    def test_dependent_option(self):
        script = ('project(x)\noption(GPU "gpu" OFF)\n'
                  'cmake_dependent_option(GPU_FFT "gpu fft" ON GPU)\n')
        with pytest.raises(ConfigureError, match="requires GPU"):
            configure(make_tree(script), {"GPU_FFT": "ON", "GPU": "OFF"})


class TestFindPackage:
    def test_found_package_sets_vars(self):
        script = ('project(x)\nfind_package(FFTW 3.3)\nif(FFTW_FOUND)\n'
                  'add_definitions(-DHAVE_FFTW)\nendif()\nadd_library(c src/a.c)\n')
        env = BuildEnvironment({"FFTW": "3.3.10"})
        cfg = configure(make_tree(script), env=env)
        assert "-DHAVE_FFTW" in cfg.compile_commands[0].flags
        assert "FFTW" in cfg.dependencies

    def test_missing_required_raises(self):
        with pytest.raises(ConfigureError, match="not available"):
            configure(make_tree("project(x)\nfind_package(CUDA REQUIRED)\n"))

    def test_missing_optional_continues(self):
        cfg = configure(make_tree(
            "project(x)\nfind_package(CUDA)\nadd_library(c src/a.c)\n"))
        assert "CUDA" not in cfg.dependencies

    def test_version_too_old_not_found(self):
        script = "project(x)\nfind_package(CUDA 12.1 REQUIRED)\n"
        with pytest.raises(ConfigureError):
            configure(make_tree(script), env=BuildEnvironment({"CUDA": "11.8"}))
        cfg = configure(make_tree(script + "add_library(c src/a.c)\n"),
                        env=BuildEnvironment({"CUDA": "12.4"}))
        assert "CUDA" in cfg.dependencies

    def test_case_insensitive_lookup(self):
        cfg = configure(make_tree(
            "project(x)\nfind_package(fftw REQUIRED)\nadd_library(c src/a.c)\n"),
            env=BuildEnvironment({"FFTW": "3.3"}))
        assert "fftw" in [d.lower() for d in cfg.dependencies]


class TestTargetsAndCommands:
    def test_library_and_executable(self):
        cfg = configure(make_tree(
            "project(x)\nadd_library(core src/a.c)\nadd_executable(app src/b.c)\n"
            "target_link_libraries(app core)\n"))
        assert cfg.targets["core"].kind == "library"
        assert cfg.targets["app"].kind == "executable"
        assert cfg.targets["app"].link_libraries == ["core"]

    def test_duplicate_target_raises(self):
        with pytest.raises(ConfigureError, match="duplicate"):
            configure(make_tree("project(x)\nadd_library(c src/a.c)\nadd_library(c src/b.c)\n"))

    def test_target_definitions_normalized(self):
        cfg = configure(make_tree(
            "project(x)\nadd_library(c src/a.c)\n"
            "target_compile_definitions(c PRIVATE FOO -DBAR=2)\n"))
        flags = cfg.compile_commands[0].flags
        assert "-DFOO" in flags and "-DBAR=2" in flags

    def test_per_target_flags_differ(self):
        """One source in two targets gets two commands — the Sec 4.3 rule."""
        cfg = configure(make_tree(
            "project(x)\nadd_library(fast src/a.c)\nadd_library(slow src/a.c)\n"
            "target_compile_options(fast PRIVATE -O3)\n"))
        fast = cfg.command_for("fast", "src/a.c")
        slow = cfg.command_for("slow", "src/a.c")
        assert fast.flags != slow.flags
        assert fast.key() != slow.key()

    def test_build_dir_include_in_flags(self):
        cfg = configure(make_tree("project(x)\nadd_library(c src/a.c)\n"), name="cfgA")
        assert any(f == "-I/build/cfgA/include" for f in cfg.compile_commands[0].flags)

    def test_different_config_names_change_fingerprints(self):
        tree = make_tree("project(x)\nadd_library(c src/a.c)\n")
        a = configure(tree, name="one").compile_commands[0]
        b = configure(tree, name="two").compile_commands[0]
        assert a.key() == b.key()
        assert a.fingerprint() != b.fingerprint()

    def test_explicit_build_dir_stabilizes_fingerprints(self):
        """Mounting the build dir at a fixed path (the paper's containerized
        configure) makes identical configurations produce identical commands."""
        tree = make_tree("project(x)\nadd_library(c src/a.c)\n")
        a = configure(tree, name="one", build_dir="/xaas/build").compile_commands[0]
        b = configure(tree, name="two", build_dir="/xaas/build").compile_commands[0]
        assert a.fingerprint() == b.fingerprint()

    def test_unknown_target_command_raises(self):
        with pytest.raises(ConfigureError, match="unknown target"):
            configure(make_tree("project(x)\ntarget_compile_options(ghost PRIVATE -O2)\n"))

    def test_unknown_commands_tolerated(self):
        cfg = configure(make_tree(
            "project(x)\nsome_custom_macro(whatever)\nadd_library(c src/a.c)\n"))
        assert "ignored: some_custom_macro" in cfg.messages


class TestConfigureFileAndIncludes:
    TREE = {
        "config.h.in": "#cmakedefine USE_MPI\n#cmakedefine01 HAVE_GPU\n#define NAME \"@PROJECT_NAME@\"\n",
    }

    def test_cmakedefine_on(self):
        cfg = configure(make_tree(
            "project(demo)\noption(USE_MPI \"m\" OFF)\n"
            "configure_file(config.h.in include/config.h)\nadd_library(c src/a.c)\n",
            self.TREE), {"USE_MPI": "ON"})
        content = cfg.generated_files["include/config.h"]
        assert "#define USE_MPI" in content
        assert "#define HAVE_GPU 0" in content
        assert '#define NAME "demo"' in content

    def test_cmakedefine_off(self):
        cfg = configure(make_tree(
            "project(demo)\nconfigure_file(config.h.in include/config.h)\n"
            "add_library(c src/a.c)\n", self.TREE))
        assert "/* #undef USE_MPI */" in cfg.generated_files["include/config.h"]

    def test_include_resolver_finds_generated_header(self):
        tree = make_tree(
            "project(demo)\nconfigure_file(config.h.in include/config.h)\n"
            "add_library(c src/a.c)\n", self.TREE)
        cfg = configure(tree, {"USE_MPI": "ON"})
        resolver = make_include_resolver(tree, cfg)
        assert resolver("config.h", False) is not None
        assert "#undef USE_MPI" in resolver("config.h", False) or \
            "#define" in resolver("config.h", False)

    def test_include_resolver_finds_tree_headers(self):
        tree = make_tree("project(x)\nadd_library(c src/a.c)\n",
                         {"include/util.h": "int util;\n"})
        cfg = configure(tree)
        resolver = make_include_resolver(tree, cfg)
        assert resolver("util.h", False) == "int util;\n"
        assert resolver("missing.h", False) is None


class TestMiscCommands:
    def test_message_fatal_error(self):
        with pytest.raises(ConfigureError, match="bad platform"):
            configure(make_tree('project(x)\nmessage(FATAL_ERROR "bad platform")\n'))

    def test_message_status_recorded(self):
        cfg = configure(make_tree('project(x)\nmessage(STATUS "hello")\nadd_library(c src/a.c)\n'))
        assert "STATUS: hello" in cfg.messages

    def test_include_script(self):
        tree = make_tree("project(x)\ninclude(extra.cmake)\nadd_library(c ${EXTRA})\n",
                         {"extra.cmake": "set(EXTRA src/a.c)\n"})
        assert configure(tree).targets["c"].sources == ["src/a.c"]

    def test_include_missing_raises(self):
        with pytest.raises(ConfigureError, match="not found"):
            configure(make_tree("project(x)\ninclude(missing.cmake)\n"))

    def test_math_expr(self):
        cfg = configure(make_tree(
            'project(x)\nmath(EXPR N "4 * 8")\nadd_library(c src/a.c)\n'
            'target_compile_definitions(c PRIVATE -DN=${N})\n'))
        assert "-DN=32" in cfg.compile_commands[0].flags


class TestConfigureCached:
    """configure_cached + BuildConfiguration serialization round-trip."""

    SCRIPT = ("project(x)\noption(WITH_FAST \"fast\" OFF)\n"
              "add_library(core src/a.c)\nadd_executable(app src/b.c)\n"
              "target_compile_definitions(core PRIVATE BASE=1)\n"
              "if(WITH_FAST)\ntarget_compile_options(core PRIVATE -O3)\n"
              "endif()\n"
              "configure_file(config.h.in config.h)\n"
              "target_link_libraries(app core)\n")

    def make(self):
        return make_tree(self.SCRIPT,
                         {"config.h.in": "#define FAST @WITH_FAST@\n"})

    def test_payload_round_trip_is_lossless(self):
        from repro.buildsys import (
            configuration_from_payload,
            configuration_to_payload,
        )
        cfg = configure(self.make(), {"WITH_FAST": "ON"}, name="fast")
        clone = configuration_from_payload(configuration_to_payload(cfg))
        assert clone == cfg

    def test_payload_rejects_foreign_format(self):
        from repro.buildsys import configuration_from_payload
        with pytest.raises(ValueError, match="not a serialized configuration"):
            configuration_from_payload('{"format": "something-else"}')

    def test_cache_hit_skips_the_interpreter(self):
        from repro.buildsys import configure_cached
        from repro.containers.store import ArtifactCache
        cache = ArtifactCache()
        tree = self.make()
        cfg1, fresh1 = configure_cached(tree, {"WITH_FAST": "ON"},
                                        cache=cache)
        cfg2, fresh2 = configure_cached(tree, {"WITH_FAST": "ON"},
                                        cache=cache)
        assert fresh1 and not fresh2
        assert cfg2 == cfg1
        counters = cache.counters("configure")
        assert (counters.hits, counters.misses) == (1, 1)

    def test_option_change_misses(self):
        from repro.buildsys import configure_cached
        from repro.containers.store import ArtifactCache
        cache = ArtifactCache()
        tree = self.make()
        cfg_on, _ = configure_cached(tree, {"WITH_FAST": "ON"}, cache=cache)
        cfg_off, fresh = configure_cached(tree, {"WITH_FAST": "OFF"},
                                          cache=cache)
        assert fresh
        assert cfg_on != cfg_off

    def test_tree_edit_misses(self):
        from repro.buildsys import configure_cached
        from repro.containers.store import ArtifactCache
        cache = ArtifactCache()
        tree = self.make()
        configure_cached(tree, {}, cache=cache)
        edited = tree.copy()
        edited.write("src/a.c", "int a_changed;")
        _, fresh = configure_cached(edited, {}, cache=cache)
        assert fresh

    def test_payload_only_hit_rebuilds_live_object(self):
        """A cold process (fresh cache over a warmed store) never runs the
        interpreter: the configuration deserializes from the payload."""
        from repro.buildsys import configure_cached
        from repro.containers.store import ArtifactCache, BlobStore
        from repro.store import FileBackend
        import tempfile
        with tempfile.TemporaryDirectory() as root:
            tree = self.make()
            warm_cache = ArtifactCache(BlobStore(FileBackend(root)))
            cfg, fresh = configure_cached(tree, {"WITH_FAST": "ON"},
                                          cache=warm_cache)
            assert fresh
            cold_cache = ArtifactCache(BlobStore(FileBackend(root)))
            clone, fresh2 = configure_cached(tree, {"WITH_FAST": "ON"},
                                             cache=cold_cache)
            assert not fresh2
            assert clone == cfg
