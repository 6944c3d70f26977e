"""Testbench-harness generation and DUT/TB merging for Design2SVA.

For every generated design we emit the accompanying formal testbench header
(paper Appendix C.1: all DUT ports mirrored as testbench inputs, plus
``tb_reset``).  At evaluation time the model's response -- one assertion plus
optional support code -- is spliced into the testbench, and DUT + TB are
merged into a single elaborable module (the role JasperGold's
elaborate/bind step plays in the paper's flow).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...rtl.ast_nodes import (
    AlwaysBlock,
    AssertionItem,
    ContinuousAssign,
    GenerateFor,
    Instance,
    ModuleDecl,
    NetDecl,
    PortDecl,
    SourceFile,
)
from ...rtl.parser import RtlParser, parse_rtl, preprocess
from ...sva.parser import ParseError
from ...sva.unparse import unparse
from .pipeline_gen import GeneratedDesign


def generate_testbench(design: GeneratedDesign) -> str:
    """The formal testbench header accompanying a generated design."""
    sf = parse_rtl(design.source)
    top = sf.modules[design.top]
    port_lines = []
    for pd in top.ports:
        dims = ""
        if pd.packed:
            r = pd.packed[0]
            dims = f" [{unparse(r.msb)}:{unparse(r.lsb)}]"
        for name in pd.names:
            port_lines.append(f"input{dims} {name};")
    params = "\n".join(f"parameter {p.name} = {unparse(p.value)};"
                       for p in top.params if not p.local)
    names = ",\n  ".join(top.port_order)
    return f"""module {design.top}_tb (
  {names}
);
{params}

{chr(10).join(port_lines)}

wire tb_reset;
assign tb_reset = (reset_ == 1'b0);
endmodule
"""


class SpliceError(ValueError):
    """The model's support code does not parse as module items."""


def parse_snippet_items(code: str) -> ModuleDecl:
    """Parse a model-response snippet (declarations/assigns/assertions) as
    the body of an anonymous module; raises :class:`SpliceError` on bad
    syntax (this is the Design2SVA syntax gate for support code)."""
    wrapped = f"module __snippet__ (); {code} endmodule"
    try:
        text, _ = preprocess(wrapped)
        parser = RtlParser(text)
        modules = parser.parse_source()
    except ParseError as exc:
        raise SpliceError(str(exc)) from exc
    return modules["__snippet__"]


@dataclass
class MergedBench:
    """A DUT+TB+response merged into one elaborable source."""

    source_file: SourceFile
    top: str


def merge_for_eval(dut_sf: SourceFile, tb_sf: SourceFile, top: str,
                   response_code: str = "") -> MergedBench:
    """Merge DUT body, testbench and the model's response into one module.

    *dut_sf* and *tb_sf* are the parsed DUT and testbench sources
    (:func:`~repro.rtl.parser.parse_rtl`) and *top* the DUT's top module;
    the testbench module is ``<top>_tb``.  The parsed inputs are shared,
    not copied: every call builds a fresh merged :class:`ModuleDecl` and
    module table that reference their nodes, and mutates neither, so one
    parse of each source serves all samples of a problem.

    The DUT's top-module *body* is inlined into the testbench module (its
    port declarations dropped -- the TB already mirrors every port as an
    input), reproducing the single-scope visibility a formal tool gives the
    testbench.  Submodules of the DUT (pipeline exec units) are kept for
    instantiation.  The model's support code and assertion are appended.
    """
    dut = dut_sf.modules[top]
    tb_name = top + "_tb"
    tb = tb_sf.modules[tb_name]

    merged = ModuleDecl(name=tb_name)
    merged.port_order = list(tb.port_order)
    merged.ports = list(tb.ports)
    seen_params = set()
    for p in list(tb.params) + list(dut.params):
        if p.name in seen_params:
            continue
        seen_params.add(p.name)
        merged.params.append(p)
    for source_mod in (tb, dut):
        for item in source_mod.items:
            if isinstance(item, PortDecl):
                continue
            _classify(merged, item)
    if response_code.strip():
        snippet = parse_snippet_items(response_code)
        for item in snippet.items:
            _classify(merged, item)

    modules = dict(dut_sf.modules)
    del modules[top]
    modules[tb_name] = merged
    return MergedBench(
        source_file=SourceFile(modules=modules, defines={}),
        top=tb_name)


def _classify(mod: ModuleDecl, item) -> None:
    mod.items.append(item)
    if isinstance(item, NetDecl):
        mod.nets.append(item)
    elif isinstance(item, ContinuousAssign):
        mod.assigns.append(item)
    elif isinstance(item, AlwaysBlock):
        mod.always_blocks.append(item)
    elif isinstance(item, GenerateFor):
        mod.generates.append(item)
    elif isinstance(item, Instance):
        mod.instances.append(item)
    elif isinstance(item, AssertionItem):
        mod.assertions.append(item)
