import types

import ilora_lab


def test_all_lists_only_the_public_api():
    exported = set(ilora_lab.__all__)
    modules = {name for name in dir(ilora_lab)
               if isinstance(getattr(ilora_lab, name), types.ModuleType)}
    assert modules and not exported & modules
    public = {name for name in dir(ilora_lab)
              if not name.startswith("_") and name not in modules}
    assert exported == public
    assert len(ilora_lab.__all__) == len(exported)
