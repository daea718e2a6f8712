"""Build file of the benchmark.

Compiles the program's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) with the Scala compiler that ships in
Spark's jar directory, into <build dir>/perfbench/classes. The build dir is
$CARGO_TARGET_DIR when set, else .bench_build, relative to the repo root. A
stamp of the sources' digest skips the compile when nothing changed.

    python3 perfbench/build.py
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class BuildError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def spark_jars():
    """Spark's jar directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        exe = shutil.which("spark-submit")
        if exe:
            home = os.path.dirname(os.path.dirname(os.path.realpath(exe)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("java not found: set JAVA_HOME or put java on PATH")
    return exe


def sources():
    main = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    if not main:
        raise BuildError("no program sources under src/main/scala; run from a full checkout")
    return main + sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))


def digest(files, extra):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    h.update(extra.encode())
    return h.hexdigest()


def build():
    """Compiles if needed; returns (classes dir, Spark jar dir, source digest)."""
    jars = spark_jars()
    compiler = [glob.glob(os.path.join(jars, f"scala-{p}-2.*.jar")) for p in ("compiler", "library", "reflect")]
    if not all(compiler):
        raise BuildError(f"no Scala compiler jars in {jars}")
    compiler = [c[0] for c in compiler]
    files = sources()
    stamp_value = digest(files, " ".join(os.path.basename(c) for c in compiler))
    out = build_dir()
    classes = os.path.join(out, "classes")
    stamp = os.path.join(out, "classes.stamp")
    if os.path.exists(stamp) and open(stamp).read() == stamp_value:
        return classes, jars, stamp_value
    staging = classes + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    cmd = [java(), "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler), "scala.tools.nsc.Main",
           "-nowarn", "-d", staging, "-cp", os.path.join(jars, "*")] + files
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise BuildError(f"scalac failed with exit code {res.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(staging, classes)
    with open(stamp, "w") as fh:
        fh.write(stamp_value)
    return classes, jars, stamp_value


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
