"""Call counters the tests install on the package's imported names."""

import sys

from latwist import lattice


def count_form_pairing(monkeypatch):
    """The list that every later form_pairing call inside the package appends to."""
    calls = []
    inner = lattice.form_pairing

    def counting_form_pairing(*args):
        calls.append(args)
        return inner(*args)

    # every module that imported the function holds its own reference
    for name, module in list(sys.modules.items()):
        if name.startswith("latwist") and getattr(module, "form_pairing", None) is inner:
            monkeypatch.setattr(module, "form_pairing", counting_form_pairing)
    return calls
